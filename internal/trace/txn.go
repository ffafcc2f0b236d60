package trace

import "fmt"

// EventKind distinguishes transaction start and end events.
type EventKind int

const (
	// StartEvent marks the first cycle of a handshake.
	StartEvent EventKind = iota
	// EndEvent marks the cycle in which VALID and READY are both high.
	EndEvent
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k == StartEvent {
		return "start"
	}
	return "end"
}

// Event is one transaction event reconstructed from a trace.
type Event struct {
	// Packet is the index of the cycle packet carrying the event.
	Packet int
	// Channel is the monitored channel index.
	Channel int
	// Kind is start or end.
	Kind EventKind
	// Content is the transaction content when the trace carries it: input
	// starts always, output ends when ValidateOutputs is set.
	Content []byte
	// Ordinal is the per-channel, per-kind ordinal of this event (the n-th
	// start or n-th end on Channel), counted from 0.
	Ordinal uint64
}

// Events flattens the trace into its transaction events in trace order.
// Events within one cycle packet are simultaneous in wall-clock terms; they
// are listed starts-first then ends, each in channel index order, which is
// the canonical intra-cycle order used throughout the tooling.
func (t *Trace) Events() []Event {
	m := t.Meta
	var out []Event
	startOrd := make([]uint64, m.NumChannels())
	endOrd := make([]uint64, m.NumChannels())
	for pi := 0; pi < t.Len(); pi++ {
		p := t.Packet(pi)
		at := 0
		for ii := p.Starts.Next(0); ii >= 0; ii = p.Starts.Next(ii + 1) {
			ci, w := m.inputIdx[ii], m.startWidth[ii]
			out = append(out, Event{Packet: pi, Channel: ci, Kind: StartEvent, Content: p.Body[at : at+w : at+w], Ordinal: startOrd[ci]})
			startOrd[ci]++
			at += w
		}
		// Output contents, when present, follow the input-start contents.
		// Lossy (gap-region) packets carry no output contents: their end
		// events surface with nil Content.
		for ci := p.Ends.Next(0); ci >= 0; ci = p.Ends.Next(ci + 1) {
			var c []byte
			if w := m.endWidth[ci]; w > 0 && !p.Lossy {
				c = p.Body[at : at+w : at+w]
				at += w
			}
			out = append(out, Event{Packet: pi, Channel: ci, Kind: EndEvent, Content: c, Ordinal: endOrd[ci]})
			endOrd[ci]++
		}
	}
	return out
}

// Txn is one reconstructed transaction.
type Txn struct {
	Channel     int
	Ordinal     uint64 // per-channel transaction number, from 0
	StartPacket int    // -1 when the trace does not record starts (outputs)
	EndPacket   int    // -1 when the transaction never completed
	Content     []byte // nil when the trace does not carry content
}

// Transactions reconstructs the transactions of channel ch in order.
func (t *Trace) Transactions(ch int) []Txn { return t.AllTransactions()[ch] }

// AllTransactions reconstructs every channel's transactions in one walk over
// the trace's events: entry ch lists channel ch's transactions in order. A
// start opens a transaction and the next end on the channel completes it; an
// end with no open start (output channels record ends only) is a
// transaction of its own.
func (t *Trace) AllTransactions() [][]Txn {
	n := t.Meta.NumChannels()
	evs := t.Events()
	// Every event opens at most one transaction, so a channel's event count
	// bounds its transactions: one slab, carved per channel, holds them all.
	bound := make([]int, n)
	for _, ev := range evs {
		bound[ev.Channel]++
	}
	slab := make([]Txn, len(evs))
	out := make([][]Txn, n)
	for ci, c := range bound {
		out[ci], slab = slab[:0:c], slab[c:]
	}
	open := make([]bool, n)
	for _, ev := range evs {
		ci := ev.Channel
		if ev.Kind == EndEvent && open[ci] {
			out[ci][len(out[ci])-1].EndPacket = ev.Packet
			open[ci] = false
			continue
		}
		tx := Txn{Channel: ci, Ordinal: uint64(len(out[ci])), StartPacket: -1, EndPacket: -1, Content: ev.Content}
		if ev.Kind == StartEvent {
			tx.StartPacket = ev.Packet
		} else {
			tx.EndPacket = ev.Packet
		}
		out[ci] = append(out[ci], tx)
		open[ci] = ev.Kind == StartEvent
	}
	return out
}

// End is one end event of a channel: the cycle packet carrying it and the
// content recorded with it, nil when the trace records none.
type End struct {
	Packet  int
	Content []byte
}

// ChannelEnds returns every channel's end events in order, carved from one
// slab: entry ch lists channel ch's.
func (t *Trace) ChannelEnds() [][]End {
	m := t.Meta
	counts := t.EndCounts()
	var total uint64
	for _, c := range counts {
		total += c
	}
	slab := make([]End, total)
	out := make([][]End, m.NumChannels())
	for ci, c := range counts {
		out[ci], slab = slab[:0:c], slab[c:]
	}
	for pi := 0; pi < t.Len(); pi++ {
		p := t.Packet(pi)
		at := widthBelow(p.Starts.words, len(m.startWidth), m.startWidth)
		for ci := p.Ends.Next(0); ci >= 0; ci = p.Ends.Next(ci + 1) {
			var c []byte
			if w := m.endWidth[ci]; w > 0 && !p.Lossy {
				c = p.Body[at : at+w : at+w]
				at += w
			}
			out[ci] = append(out[ci], End{Packet: pi, Content: c})
		}
	}
	return out
}

// EndEvents returns the trace's end events in order, across all channels.
// This sequence defines the happens-before order that transaction
// determinism preserves.
func (t *Trace) EndEvents() []Event {
	var out []Event
	for _, ev := range t.Events() {
		if ev.Kind == EndEvent {
			out = append(out, ev)
		}
	}
	return out
}

// FindEnd locates the packet index of the n-th end event (0-based) on
// channel ch, or -1 if the trace has fewer.
func (t *Trace) FindEnd(ch int, n uint64) int {
	for pi := 0; pi < t.Len(); pi++ {
		if t.Packet(pi).Ends.Get(ch) {
			if n == 0 {
				return pi
			}
			n--
		}
	}
	return -1
}

// Summary returns a human-readable per-channel transaction count summary.
func (t *Trace) Summary() string {
	counts := t.EndCounts()
	s := fmt.Sprintf("%d cycle packets, %d bytes, %d transactions\n", t.Len(), t.SizeBytes(), t.TotalTransactions())
	for i, c := range t.Meta.Channels {
		s += fmt.Sprintf("  [%2d] %-16s %-6s width=%-3d ends=%d\n", i, c.Name, c.Dir, c.Width, counts[i])
	}
	return s
}
