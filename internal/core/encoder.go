package core

import (
	"vidi/internal/sim"
	"vidi/internal/trace"
)

// DefaultStallBudget is the number of consecutive back-pressured cycles the
// encoder tolerates before degraded recording goes lossy.
const DefaultStallBudget = 64

// Encoder is Vidi's trace encoder (§3.2). Each cycle it aggregates the
// channel packets pushed by the monitors into a cycle packet — Starts and
// Ends bit-vectors plus the compacted contents — serializes it, and
// queues the bytes for the trace store.
//
// The encoder's buffer models the on-FPGA BRAM staging area. Space
// accounting is what implements Vidi's back-pressure: monitors ask
// CanAccept before starting a transaction, and eager end reservations
// guarantee that an in-flight transaction's end event can always be logged
// in the cycle it happens.
//
// With Degraded set, sustained back-pressure (more than StallBudget
// consecutive cycles with a denied monitor) switches the encoder into lossy
// mode: output end contents are shed while every Starts/Ends bit and all
// input contents are still recorded, so replay stays exact and only
// divergence-detection coverage is lost. The affected packets carry the
// Lossy gap marker; the encoder leaves lossy mode once the staging buffer
// has drained back below a quarter of its capacity.
type Encoder struct {
	sim.NullEval
	meta  *trace.Meta
	store *Store

	bufBytes int // total staging capacity (BRAM model)
	used     int // bytes queued, waiting for the store to drain
	reserved int // bytes reserved for outstanding end events

	// Per-cycle builders, filled by monitors during Tick: each channel's
	// channel packet, and the channels touched this cycle, in log order.
	// Only the touched channels are scanned and reset at the clock edge.
	cur     []trace.ChannelPacket
	touched []int

	// Space needs, fixed when the encoder is built. startNeed[ci] and
	// endNeed[l][ci] are the worst-case bytes a start and an end event on
	// channel ci add, with l = 1 in lossy mode; margin[l] is their sum over
	// all channels.
	startNeed []int
	endNeed   [2][]int
	margin    [2]int

	// Outstanding reservation sizes per channel. Held as byte amounts, not
	// booleans, so a release returns exactly what was reserved even when a
	// lossy-mode switch changed the channel's need in between.
	endResv   []int
	startResv []int

	// EmitIdlePackets records a cycle packet even for cycles without any
	// transaction event. It is the ablation of Vidi's event-only encoding:
	// with it on, trace size grows with wall-clock cycles the way a
	// timestamped design would.
	EmitIdlePackets bool

	// Degraded enables graceful degradation: instead of back-pressuring the
	// application indefinitely when the store cannot keep up, recording goes
	// lossy after StallBudget consecutive denied cycles.
	Degraded bool
	// StallBudget is the denied-cycle streak tolerated before going lossy.
	// Zero selects DefaultStallBudget.
	StallBudget int

	lossy           bool
	stallStreak     int
	deniedThisCycle bool

	tickWake func()

	// waiters are monitors whose Eval consulted the space accounting while an
	// unforwarded start was pending. They are Touched (re-evaluated) when the
	// accounting changes, then cleared; a still-waiting monitor re-enlists on
	// its next Eval. lastFree/lastLossy are the values at the last
	// notification point, so a no-op Tick does not wake anyone.
	waiters   []*Monitor
	lastFree  int
	lastLossy bool

	// The structured trace, for offline tooling and replay.
	rec *trace.Trace

	// Stats.
	Denials uint64 // CanAccept refusals (a cycle may be counted repeatedly)
	// GapCount is the number of distinct lossy gaps entered.
	GapCount uint64
	// UnrecordedEnds counts output end events whose contents were shed in
	// lossy mode — the "N transactions unrecorded (degraded)" of the report.
	UnrecordedEnds uint64
}

// NewEncoder creates an encoder over meta feeding store, with a staging
// buffer of bufBytes.
func NewEncoder(meta *trace.Meta, store *Store, bufBytes int) *Encoder {
	n := meta.NumChannels()
	e := &Encoder{
		meta:      meta,
		store:     store,
		bufBytes:  bufBytes,
		cur:       make([]trace.ChannelPacket, n),
		touched:   make([]int, 0, n),
		startNeed: make([]int, n),
		endNeed:   [2][]int{make([]int, n), make([]int, n)},
		endResv:   make([]int, n),
		startResv: make([]int, n),
		rec:       trace.NewTrace(meta),
		lastFree:  bufBytes,
	}
	// Every event can open a cycle packet, so each need includes the
	// packet's Starts and Ends fields. In lossy mode output contents are
	// shed, so an output end costs only that header — this shrinking demand
	// is what lets degraded recording relieve back-pressure instead of
	// wedging the application. The margin is the worst-case demand of one
	// cycle across all channels, kept free so that concurrent CanAccept
	// answers cannot jointly oversubscribe the buffer.
	header := trace.ByteLen(meta.NumInputs()) + trace.ByteLen(meta.NumChannels())
	for ci, c := range meta.Channels {
		e.startNeed[ci] = header
		e.endNeed[0][ci], e.endNeed[1][ci] = header, header
		if c.Dir == trace.Input {
			e.startNeed[ci] += c.Width
		} else if meta.ValidateOutputs {
			e.endNeed[0][ci] += c.Width
		}
		for l := range e.margin {
			e.margin[l] += e.startNeed[ci] + e.endNeed[l][ci]
		}
	}
	return e
}

// Name implements sim.Module.
func (e *Encoder) Name() string { return "trace-encoder" }

// mode indexes the space needs: 1 in lossy mode, else 0.
func (e *Encoder) mode() int {
	if e.lossy {
		return 1
	}
	return 0
}

func (e *Encoder) stallBudget() int {
	if e.StallBudget > 0 {
		return e.StallBudget
	}
	return DefaultStallBudget
}

// Lossy reports whether the encoder is currently in lossy (gap) mode.
func (e *Encoder) Lossy() bool { return e.lossy }

// CanAccept reports whether channel ci's monitor may begin a new transaction
// this cycle. It reads only registered state, so it is stable within a cycle
// and safe to consult from Eval. When it returns false the monitor withholds
// the handshake — Vidi's back-pressure (§3.3).
func (e *Encoder) CanAccept(ci int) bool {
	free := e.bufBytes - e.used - e.reserved
	l := e.mode()
	ok := free >= e.startNeed[ci]+e.endNeed[l][ci]+e.margin[l]
	if !ok {
		e.Denials++
		e.deniedThisCycle = true
		e.wake()
	}
	return ok
}

// wake schedules the encoder's Tick for this cycle's clock edge.
func (e *Encoder) wake() {
	if e.tickWake != nil {
		e.tickWake()
	}
}

// enlistSpaceWaiter registers a monitor to be re-evaluated when the space
// accounting changes. Idempotent per monitor; called from monitor Evals.
func (e *Encoder) enlistSpaceWaiter(m *Monitor) {
	if !m.spaceWaiting {
		m.spaceWaiting = true
		e.waiters = append(e.waiters, m)
	}
}

// notifySpaceChange Touches the enlisted monitors if the space accounting
// moved since the last notification. CanAccept's answer is a function of the
// free byte count and the lossy flag (which shrinks end-event needs), so
// those are the signals compared. Runs at the end of Tick; every mutation of
// used/reserved/lossy wakes the encoder, so no change can hide in a skipped
// Tick.
func (e *Encoder) notifySpaceChange() {
	free := e.bufBytes - e.used - e.reserved
	if free == e.lastFree && e.lossy == e.lastLossy {
		return
	}
	e.lastFree, e.lastLossy = free, e.lossy
	for _, m := range e.waiters {
		m.spaceWaiting = false
		m.Touch()
	}
	e.waiters = e.waiters[:0]
}

// BindTickWake implements sim.TickWakeable.
func (e *Encoder) BindTickWake(wake func()) { e.tickWake = wake }

// TickWatch implements sim.TickSensitive: the encoder has no channels of its
// own; monitors wake it by logging events and denials wake it from Eval.
func (e *Encoder) TickWatch() []*sim.Channel { return nil }

// TickStable implements sim.TickSensitive: with an empty staging buffer, no
// denial to account and neither ablation active, Tick is a no-op. The
// degraded state machine judges buffer pressure every cycle, so degraded
// recording never sleeps.
func (e *Encoder) TickStable() bool {
	return e.used == 0 && !e.deniedThisCycle && !e.EmitIdlePackets && !e.Degraded
}

// LogStart records a start event with content for channel ci in the current
// cycle, consuming any start reservation. Called by monitors during Tick.
func (e *Encoder) LogStart(ci int, content []byte) {
	e.wake()
	e.touch(ci)
	e.cur[ci].Start = true
	e.cur[ci].Content = content
	if e.startResv[ci] > 0 {
		e.reserved -= e.startResv[ci]
		e.startResv[ci] = 0
	}
}

// ReserveStart pre-allocates space for an upcoming start event (the
// store-and-forward monitor secures it one cycle ahead). The reservation
// shrinks free space, so the encoder must tick (and notify space waiters)
// this cycle.
func (e *Encoder) ReserveStart(ci int) {
	if e.startResv[ci] == 0 {
		e.startResv[ci] = e.startNeed[ci]
		e.reserved += e.startResv[ci]
		e.wake()
	}
}

// ReserveEnd makes the eager reservation guaranteeing that the end event of
// the transaction now starting on ci can be logged instantly later.
func (e *Encoder) ReserveEnd(ci int) {
	if e.endResv[ci] == 0 {
		e.endResv[ci] = e.endNeed[e.mode()][ci]
		e.reserved += e.endResv[ci]
		e.wake()
	}
}

// LogEnd records an end event for channel ci in the current cycle,
// consuming its reservation. content is non-nil only for output channels in
// validation mode.
func (e *Encoder) LogEnd(ci int, content []byte) {
	e.wake()
	e.touch(ci)
	e.cur[ci].End = true
	if content != nil {
		e.cur[ci].Content = content
	}
	if e.endResv[ci] > 0 {
		e.reserved -= e.endResv[ci]
		e.endResv[ci] = 0
	}
}

// touch adds channel ci to this cycle's touched channels on its first
// event.
func (e *Encoder) touch(ci int) {
	if cp := e.cur[ci]; !cp.Start && !cp.End {
		e.touched = append(e.touched, ci)
	}
}

// Tick implements sim.Module. Monitors tick before the encoder, so by now
// the per-cycle builders hold all of this cycle's events.
func (e *Encoder) Tick() {
	if len(e.touched) > 0 || e.EmitIdlePackets {
		// The builder compacts the contents in order (§3.2) — the start
		// contents of the input channels, then the end contents of the
		// output channels, each in channel order — whatever order the
		// monitors logged them in. In lossy mode it sheds the end contents.
		b := e.rec.Append(e.lossy)
		for _, ci := range e.touched {
			cp := e.cur[ci]
			if cp.Start {
				b.Start(ci, cp.Content)
			}
			if cp.End {
				if e.lossy && e.meta.ValidateOutputs && e.meta.Channels[ci].Dir == trace.Output {
					e.UnrecordedEnds++
				}
				b.End(ci, cp.Content)
			}
			e.cur[ci] = trace.ChannelPacket{}
		}
		e.touched = e.touched[:0]
		e.used += e.rec.Packet(e.rec.Len() - 1).Size()
	}
	// Drain into the trace store.
	if e.store != nil && e.used > 0 {
		n := e.store.Accept(e.used)
		e.used -= n
	}
	// Graceful degradation state machine. Mode changes take effect from the
	// next cycle's packet, keeping the decision deterministic and registered.
	// Pressure is judged from buffer occupancy, not from CanAccept denials:
	// a starved store keeps the buffer pinned full continuously, while
	// denials only land on cycles where a monitor happens to ask.
	if e.Degraded {
		free := e.bufBytes - e.used - e.reserved
		if e.deniedThisCycle || free < 2*e.margin[e.mode()] {
			e.stallStreak++
			if !e.lossy && e.stallStreak > e.stallBudget() {
				e.lossy = true
				e.GapCount++
			}
		} else {
			e.stallStreak = 0
		}
		if e.lossy && e.used <= e.bufBytes/4 {
			e.lossy = false
			e.stallStreak = 0
		}
	}
	e.deniedThisCycle = false
	e.notifySpaceChange()
}

// Trace returns the structured trace recorded so far.
func (e *Encoder) Trace() *trace.Trace { return e.rec }

// BufferedBytes reports bytes staged but not yet accepted by the store.
func (e *Encoder) BufferedBytes() int { return e.used }
