package core

import (
	"math"

	"vidi/internal/sim"
	"vidi/internal/trace"
)

// Coordinator carries the replay's shared progress: per channel, the count
// of transactions completed during the replay, and the frontier those
// counts reach in the trace. In hardware each replayer keeps its own copy
// of T_current updated by broadcast messages; sharing it is behaviourally
// identical and deterministic.
//
// The paper's replayer releases an event of cycle packet p once
// T_current ≥ T_expected(p), where T_expected(p)[c] counts channel c's
// recorded ends in packets before p. Each channel completes its ends in
// recorded order, so that holds for channel c exactly when c's first
// recorded end not yet completed lies in packet p or later. The whole
// comparison is therefore one integer: p ≤ frontier, the lowest packet
// index of any channel's first uncompleted end.
//
// The coordinator is itself a module, registered after every replayer: its
// Tick runs the replayers' item-processing phase once all of the cycle's
// completions have been broadcast, so that transactions recorded as
// concurrent (same cycle packet) are re-offered in the same cycle rather
// than skewed by module iteration order.
type Coordinator struct {
	sim.NullEval
	done []uint64 // completed transactions per channel
	// ends lists, per channel, the cycle packets holding its recorded
	// ends, in order; all channels share one slab.
	ends      [][]int
	frontier  int
	replayers []*Replayer
}

// NewCoordinator creates the coordinator for replaying tr.
func NewCoordinator(tr *trace.Trace) *Coordinator {
	n := tr.Meta.NumChannels()
	counts := tr.EndCounts()
	var total uint64
	for _, c := range counts {
		total += c
	}
	slab := make([]int, total)
	c := &Coordinator{done: make([]uint64, n), ends: make([][]int, n)}
	for ci, k := range counts {
		c.ends[ci], slab = slab[:0:k], slab[k:]
	}
	for pi := 0; pi < tr.Len(); pi++ {
		ends := tr.Packet(pi).Ends
		for ci := ends.Next(0); ci >= 0; ci = ends.Next(ci + 1) {
			c.ends[ci] = append(c.ends[ci], pi)
		}
	}
	c.frontier = c.lowest()
	return c
}

// pending is the cycle packet of channel ci's first recorded end not yet
// completed, or MaxInt once every recorded end has.
func (c *Coordinator) pending(ci int) int {
	if e := c.ends[ci]; c.done[ci] < uint64(len(e)) {
		return e[c.done[ci]]
	}
	return math.MaxInt
}

// lowest is the frontier: the least pending end over all channels.
func (c *Coordinator) lowest() int {
	f := math.MaxInt
	for ci := range c.ends {
		f = min(f, c.pending(ci))
	}
	return f
}

// Name implements sim.Module.
func (c *Coordinator) Name() string { return "replay-coordinator" }

// Tick implements sim.Module: it runs every replayer's processing phase
// after all fire broadcasts of the cycle.
func (c *Coordinator) Tick() {
	for _, r := range c.replayers {
		r.process()
	}
}

// TickHorizon implements sim.TickHorizon. A processing pass stops only where
// the frontier, the decoder's released count or a handshake must move before
// it can go on, and on a frozen network none of them does: every further
// pass stops at the same place, having changed nothing but gate stalls.
func (c *Coordinator) TickHorizon(now uint64) uint64 { return sim.NoHorizon }

// SkipTicks implements sim.TickHorizon: each skipped pass would have parked
// the same replayers on the happens-before gate again.
func (c *Coordinator) SkipTicks(n uint64) {
	for _, r := range c.replayers {
		if r.parked {
			r.gateStalls += n
		}
	}
}

// Completed broadcasts that a transaction completed on channel ci. Only the
// channel holding the frontier can move it.
func (c *Coordinator) Completed(ci int) {
	at := c.pending(ci)
	c.done[ci]++
	if at == c.frontier {
		c.frontier = c.lowest()
	}
}

// Released reports whether T_current ≥ T_expected holds for cycle packet p.
func (c *Coordinator) Released(p int) bool { return p <= c.frontier }

// Completions returns the per-channel counts of completed transactions.
func (c *Coordinator) Completions() []uint64 { return c.done }

// Decoder is the trace decoder (§3.4): it decomposes cycle packets into
// per-channel packets plus the Ends vector and makes them available to the
// channel replayers, at a bounded fetch bandwidth that models reading the
// trace back from external storage. When built it splits the trace once into
// one stream per channel: the cycle packets that carry an event on the
// channel, each with the channel's own packet and that packet's index,
// against which the coordinator's frontier stands in for T_expected. These
// are the paper's per-replayer ⟨channel packet, Ends⟩ streams.
type Decoder struct {
	sim.NullEval
	tr    *trace.Trace
	store *Store

	// streams holds, per channel, the stream entries of the packets that
	// carry an event on that channel, in trace order.
	streams [][]streamEntry

	released int // packets whose bytes have been fetched
	fetched  int // bytes fetched so far
	offset   int // serialized offset of the next packet

	// fetchStalls counts Ticks that exhausted the fetch bandwidth with
	// packets still pending. Read by the telemetry sink when gathered.
	fetchStalls uint64
}

// streamEntry is one item of a replayer's stream.
type streamEntry struct {
	pkt int // index of the cycle packet
	cp  trace.ChannelPacket
}

// NewDecoder creates a decoder over tr fetching through store.
func NewDecoder(tr *trace.Trace, store *Store) *Decoder {
	m := tr.Meta
	n := m.NumChannels()
	inputs := m.InputChannels()
	// A channel's stream has at most one entry per start and end event on
	// it, so one slab, carved per channel, holds every stream.
	size := tr.EndCounts()
	for pi := 0; pi < tr.Len(); pi++ {
		starts := tr.Packet(pi).Starts
		for ii := starts.Next(0); ii >= 0; ii = starts.Next(ii + 1) {
			size[inputs[ii]]++
		}
	}
	var total uint64
	for _, c := range size {
		total += c
	}
	slab := make([]streamEntry, total)
	d := &Decoder{tr: tr, store: store, streams: make([][]streamEntry, n)}
	for ci, c := range size {
		d.streams[ci], slab = slab[:0:c], slab[c:]
	}
	for pi := 0; pi < tr.Len(); pi++ {
		p := tr.Packet(pi)
		for ii := p.Starts.Next(0); ii >= 0; ii = p.Starts.Next(ii + 1) {
			ci := inputs[ii]
			d.streams[ci] = append(d.streams[ci], streamEntry{pkt: pi, cp: p.Channel(ci)})
		}
		for ci := p.Ends.Next(0); ci >= 0; ci = p.Ends.Next(ci + 1) {
			if s := d.streams[ci]; len(s) > 0 && s[len(s)-1].pkt == pi {
				continue // the start's entry already carries the end
			}
			d.streams[ci] = append(d.streams[ci], streamEntry{pkt: pi, cp: trace.ChannelPacket{End: true}})
		}
	}
	return d
}

// Name implements sim.Module.
func (d *Decoder) Name() string { return "trace-decoder" }

// Tick implements sim.Module: it releases every packet whose bytes have been
// fetched from storage this cycle.
func (d *Decoder) Tick() {
	for d.released < d.tr.Len() {
		size := d.tr.Packet(d.released).Size()
		need := d.offset + size - d.fetched
		if need > 0 {
			got := d.store.Accept(need)
			d.fetched += got
			if got < need {
				d.fetchStalls++
				return // fetch bandwidth exhausted this cycle
			}
		}
		d.offset += size
		d.released++
	}
}

// Done reports whether the whole trace has been released to the replayers.
func (d *Decoder) Done() bool { return d.released >= d.tr.Len() }

// TickHorizon implements sim.TickHorizon: while packets remain unreleased
// every Tick draws on the store, so the decoder declines; once the whole
// trace is released its Tick is a no-op.
func (d *Decoder) TickHorizon(now uint64) uint64 {
	if d.Done() {
		return sim.NoHorizon
	}
	return now
}

// SkipTicks implements sim.TickHorizon; a released decoder has no state
// to advance.
func (d *Decoder) SkipTicks(uint64) {}

// Replayer recreates the environment side of one boundary channel during
// replay (§3.5). An input channel replayer acts as the sender: it starts
// each recorded transaction with its recorded content once the happens-
// before precondition T_current ≥ T_expected holds. An output channel
// replayer acts as the receiver: it completes each recorded transaction by
// asserting READY once the precondition holds.
//
// The replayer walks its own stream from the decoder. An entry's
// T_expected counts the transaction ends of every earlier cycle packet, so
// an event is only recreated after every transaction end that preceded it in
// the recorded execution has completed in the replay — transaction
// determinism. The coordinator's frontier decides that comparison.
type Replayer struct {
	sim.EvalTracker
	ci    int
	bc    BoundaryChannel
	coord *Coordinator
	dec   *Decoder

	next int // cursor into the channel's stream

	// Sender state (input channels).
	active bool
	cur    []byte
	// Receiver state (output channels).
	ready bool

	// startIssued marks that the head item's start has been driven.
	startIssued bool
	// firedPending counts handshakes observed on the channel that have not
	// yet been matched to an End item. The application side may complete an
	// input transaction before the replayer processes the corresponding End
	// item; the counter absorbs that skew.
	firedPending int

	// gateStalls counts process() passes parked on the happens-before
	// precondition (T_current < T_expected) — the replay-side analogue of
	// recording back-pressure. Read by the telemetry sink when gathered.
	gateStalls uint64
	// parked marks that the last pass ended on that precondition.
	parked bool
}

// NewReplayer creates the replayer for boundary channel index ci.
func NewReplayer(ci int, bc BoundaryChannel, coord *Coordinator, dec *Decoder) *Replayer {
	return &Replayer{ci: ci, bc: bc, coord: coord, dec: dec}
}

// Name implements sim.Module.
func (r *Replayer) Name() string { return "replayer." + r.bc.Info.Name }

// Done reports whether the replayer has recreated all of its events.
func (r *Replayer) Done() bool {
	return r.dec.Done() && r.next >= len(r.dec.streams[r.ci]) && !r.active && r.firedPending == 0
}

// Eval implements sim.Module: drive the environment-side channel from
// registered state.
func (r *Replayer) Eval() {
	if r.bc.Info.Dir == trace.Input {
		r.bc.Env.Valid.Set(r.active)
		if r.active {
			r.bc.Env.Data.Set(r.cur)
		}
	} else {
		r.bc.Env.Ready.Set(r.ready)
	}
}

// Sensitivity implements sim.Sensitive: the replayer recreates the
// environment side of its channel from registered state. Replayers also
// share the coordinator's frontier and the decoder's cursor state at
// Tick time, which the stack sees in registration order.
func (r *Replayer) Sensitivity() sim.Sensitivity {
	if r.bc.Info.Dir == trace.Input {
		return sim.Sensitivity{Drives: r.bc.Env.SenderSignals()}
	}
	return sim.Sensitivity{Drives: r.bc.Env.ReceiverSignals()}
}

// Tick implements sim.Module: phase A, observe completions on the
// environment side and broadcast them. Item processing (phase B) runs from
// the coordinator's Tick once every replayer has broadcast.
func (r *Replayer) Tick() {
	if r.bc.Env.Fired() {
		r.coord.Completed(r.ci)
		r.firedPending++
		if r.bc.Info.Dir == trace.Input {
			r.active = false
		} else {
			r.ready = false
		}
		r.Touch()
	}
}

// TickHorizon implements sim.TickHorizon: the Tick only reacts to a
// handshake on the environment channel, and the scheduler batches only
// cycles on which no channel can latch one.
func (r *Replayer) TickHorizon(now uint64) uint64 { return sim.NoHorizon }

// SkipTicks implements sim.TickHorizon; a Tick without a handshake changes
// nothing.
func (r *Replayer) SkipTicks(uint64) {}

// process is phase B: recreate as many trace events as preconditions allow.
func (r *Replayer) process() {
	input := r.bc.Info.Dir == trace.Input
	r.parked = false
	stream := r.dec.streams[r.ci]
	// An entry is visible once the decoder has released its packet.
	for r.next < len(stream) && stream[r.next].pkt < r.dec.released {
		e := &stream[r.next]
		if !r.coord.Released(e.pkt) {
			r.gateStalls++
			r.parked = true
			return // happens-before precondition not yet satisfied
		}
		if e.cp.Start && !r.startIssued {
			if r.active {
				return // previous transaction still being offered
			}
			r.cur = e.cp.Content
			r.active = true
			r.startIssued = true
			r.Touch()
		}
		if e.cp.End {
			if input {
				// The application's READY decides when an input
				// transaction ends; wait for the observed handshake.
				if r.firedPending == 0 {
					return
				}
				r.firedPending--
			} else {
				// Output channel: attempt to end the transaction by
				// asserting READY, then wait for the handshake.
				if r.firedPending == 0 {
					if !r.ready {
						r.ready = true
						r.Touch()
					}
					return
				}
				r.firedPending--
			}
		}
		r.next++
		r.startIssued = false
	}
}
