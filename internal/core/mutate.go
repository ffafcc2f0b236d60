package core

import (
	"fmt"

	"vidi/internal/trace"
)

// Trace mutation (§4.2, §5.3): Vidi's testing workflow captures a production
// trace and reorders its transaction events to synthesize executions that
// the protocol permits but that rarely occur naturally — e.g. completing a
// write-data transaction before its write-address transaction, the legal AXI
// interleaving that deadlocks the buggy axi_atop_filter in the paper's
// testing case study.

// MoveEndBefore mutates t so that the n-th end event (0-based) of channel ch
// occurs strictly before the m-th end event of channel before. The moved
// event (with its content, when the trace carries it) is placed in a fresh
// cycle packet immediately preceding the packet holding the target event.
// For input channels, the transaction's start event — which must not follow
// its own end — is moved along when necessary, yielding a single-cycle
// transaction at the new position. All other events keep their relative
// order.
func MoveEndBefore(t *trace.Trace, ch string, n uint64, before string, m uint64) error {
	ci := t.Meta.ChannelByName(ch)
	if ci < 0 {
		return fmt.Errorf("core: unknown channel %q", ch)
	}
	bi := t.Meta.ChannelByName(before)
	if bi < 0 {
		return fmt.Errorf("core: unknown channel %q", before)
	}
	src := t.FindEnd(ci, n)
	if src < 0 {
		return fmt.Errorf("core: channel %s has no end event #%d", ch, n)
	}
	dst := t.FindEnd(bi, m)
	if dst < 0 {
		return fmt.Errorf("core: channel %s has no end event #%d", before, m)
	}
	if src < dst {
		return nil // already strictly before
	}

	// The moved end's content, and for an input channel the matching start,
	// which must stay strictly before (or move together with) its end.
	txns := t.Transactions(ci)
	if n >= uint64(len(txns)) {
		return fmt.Errorf("core: channel %s has %d transactions, wanted #%d", ch, len(txns), n)
	}
	moved := trace.ChannelPacket{End: true}
	startPkt := -1
	if t.Meta.Channels[ci].Dir == trace.Input {
		startPkt = txns[n].StartPacket
		if startPkt >= dst {
			moved.Start, moved.Content = true, txns[n].Content
		}
	} else {
		moved.Content = txns[n].Content
	}

	// Rebuild the trace: the moved events leave their packets, a packet
	// they leave without events is dropped, and a fresh packet carrying them
	// goes in immediately before the packet holding the target event. The
	// fresh packet is lossy if the moved end's was: its content was shed.
	out := trace.NewTrace(t.Meta)
	for pi := 0; pi < t.Len(); pi++ {
		if pi == dst {
			addChannel(out.Append(t.Packet(src).Lossy), ci, moved)
		}
		dropStart, dropEnd := -1, -1
		if moved.Start && pi == startPkt {
			dropStart = ci
		}
		if pi == src {
			dropEnd = ci
		}
		copyPacket(out, t.Packet(pi), dropStart, dropEnd)
	}
	*t = *out
	return t.Validate()
}

// copyPacket appends p to out without channel dropStart's start event and
// channel dropEnd's end event (-1 drops neither), unless dropping them
// leaves the packet without events.
func copyPacket(out *trace.Trace, p trace.CyclePacket, dropStart, dropEnd int) {
	b := out.Append(p.Lossy)
	for ci := range out.Meta.Channels {
		cp := p.Channel(ci)
		cp.Start = cp.Start && ci != dropStart
		cp.End = cp.End && ci != dropEnd
		addChannel(b, ci, cp)
	}
	if (dropStart >= 0 || dropEnd >= 0) && out.Packet(out.Len()-1).Empty() {
		out.Truncate(out.Len() - 1)
	}
}

// addChannel adds channel ci's events in cp to the packet b builds.
func addChannel(b trace.PacketBuilder, ci int, cp trace.ChannelPacket) {
	if cp.Start {
		b.Start(ci, cp.Content)
	}
	if cp.End {
		b.End(ci, cp.Content)
	}
}

// SwapEnds exchanges the order of two end events by moving the later one
// before the earlier one.
func SwapEnds(t *trace.Trace, chA string, nA uint64, chB string, nB uint64) error {
	ai := t.Meta.ChannelByName(chA)
	bi := t.Meta.ChannelByName(chB)
	if ai < 0 || bi < 0 {
		return fmt.Errorf("core: unknown channel %q or %q", chA, chB)
	}
	pa, pb := t.FindEnd(ai, nA), t.FindEnd(bi, nB)
	if pa < 0 || pb < 0 {
		return fmt.Errorf("core: end event not found")
	}
	if pa <= pb {
		return MoveEndBefore(t, chB, nB, chA, nA)
	}
	return MoveEndBefore(t, chA, nA, chB, nB)
}

// DropTail truncates the trace after the first n cycle packets; useful for
// replaying a prefix of an execution.
func DropTail(t *trace.Trace, n int) { t.Truncate(n) }
