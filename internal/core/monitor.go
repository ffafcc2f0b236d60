package core

import (
	"vidi/internal/sim"
	"vidi/internal/telemetry"
	"vidi/internal/trace"
)

// Monitor transparently interposes on one boundary channel (§3.1, Fig 4).
//
// For an input channel (environment is the sender) the monitor performs
// coarse-grained input recording: it captures the start event, the content,
// and the end event of every transaction. For an output channel it captures
// only the end event by default, plus the content when the encoder is
// configured for output validation (§3.6).
//
// The monitor may only let a transaction begin once the trace encoder has
// accepted the start event and granted an *eager reservation* for the end
// event. The reservation guarantees the encoder can log the end in the same
// cycle the handshake completes, so the monitor can finish its three
// transactions (sender side, receiver side, encoder side) simultaneously —
// the property the paper formally verified and that Debug Governor violates.
//
// With a nil encoder the monitor degenerates to a transparent combinational
// passthrough, which is Vidi's disabled (R1) configuration.
type Monitor struct {
	sim.EvalTracker
	ci  int
	bc  BoundaryChannel
	enc *Encoder

	// forwarding is registered state: a transaction is in flight between
	// the two sides.
	forwarding bool

	// spaceWaiting marks the monitor as enlisted in the encoder's waiter
	// list; cleared when the encoder notifies a space-accounting change.
	spaceWaiting bool

	// storeAndForward, when set, delays the receiver-side start by one
	// cycle after securing the encoder reservation, modelling the
	// conservative design in which data is "safely stored on the trace
	// encoder" before the receiver-side transaction begins. The default is
	// cut-through: the encoder accepts the start event combinationally in
	// the same cycle. Kept as an ablation of Vidi's recording latency.
	// Either way, events are logged in the cycle the receiver observes
	// them, so the trace position matches what the FPGA program saw.
	storeAndForward bool
	reserved        bool

	// Telemetry (attached by Shim.bindTelemetry; all zero without a sink).
	// observed counts receiver-side handshake events (starts and ends),
	// recorded counts events actually logged to the encoder, gapped counts
	// output ends whose contents were shed in lossy mode. Plain fields,
	// read by the sink when it is gathered.
	observed uint64
	recorded uint64
	gapped   uint64
	// now reads the simulation cycle (safe during Tick: the cycle counter
	// advances after the tick phase); track is the channel's Perfetto lane
	// carrying one span per transaction.
	now      func() uint64
	track    *telemetry.Track
	txnStart uint64
}

// newMonitor creates a monitor for boundary channel index ci. enc may be nil
// for the transparent configuration.
func newMonitor(ci int, bc BoundaryChannel, enc *Encoder, storeAndForward bool) *Monitor {
	return &Monitor{ci: ci, bc: bc, enc: enc, storeAndForward: storeAndForward}
}

// Name implements sim.Module.
func (m *Monitor) Name() string { return "monitor." + m.bc.Info.Name }

// sender returns the channel the monitor receives from, and receiver the
// channel it sends to, given the boundary direction.
func (m *Monitor) sides() (from, to *sim.Channel) {
	if m.bc.Info.Dir == trace.Input {
		return m.bc.Env, m.bc.App
	}
	return m.bc.App, m.bc.Env
}

// Eval implements sim.Module.
func (m *Monitor) Eval() {
	from, to := m.sides()
	if m.enc == nil {
		// Transparent passthrough (recording disabled).
		to.Valid.Set(from.Valid.Get())
		to.Data.Set(from.Data.Get())
		from.Ready.Set(to.Ready.Get())
		return
	}
	fwd := m.forwarding
	if !fwd && from.Valid.Get() {
		// While an unforwarded start is waiting, the answer below depends on
		// the encoder's space accounting; enlist so a change re-evaluates us.
		m.enc.enlistSpaceWaiter(m)
		if m.enc.CanAccept(m.ci) {
			if m.storeAndForward {
				// The start is logged this cycle; forwarding begins next
				// cycle (see Tick).
				fwd = false
			} else {
				fwd = true
			}
		}
	}
	to.Valid.Set(fwd)
	if fwd {
		to.Data.Set(from.Data.Get())
	}
	from.Ready.Set(fwd && to.Ready.Get())
}

// Sensitivity implements sim.Sensitive: the monitor is the combinational
// bridge between the environment and application sides of its channel. The
// recording path also consults the shared encoder from Eval; the encoder
// re-wakes a monitor waiting on it through the space-waiter list.
func (m *Monitor) Sensitivity() sim.Sensitivity {
	from, to := m.sides()
	return sim.Sensitivity{
		Reads:  []sim.Signal{from.Valid, from.Data, to.Ready},
		Drives: []sim.Signal{to.Valid, to.Data, from.Ready},
	}
}

// Eval stability is the embedded EvalTracker's: the recording path also
// depends on the encoder's space accounting, but that dependency is
// event-driven — the monitor enlists as a space waiter while an unforwarded
// start is pending, and the encoder Touches enlisted monitors whenever the
// accounting changes (see Encoder.notifySpaceChange). Everything else the
// monitor reads is either a declared signal or registered state it Touches.

// TickWatch implements sim.TickSensitive: the cut-through monitor's Tick
// acts only on the receiver-side channel's handshake events.
func (m *Monitor) TickWatch() []*sim.Channel {
	_, to := m.sides()
	return []*sim.Channel{to}
}

// TickStable implements sim.TickSensitive. The store-and-forward variant
// polls from.Valid and the encoder's space accounting from Tick, so it can
// never sleep; the passthrough and cut-through variants are pure reactions
// to watched events.
func (m *Monitor) TickStable() bool { return m.enc == nil || !m.storeAndForward }

// Tick implements sim.Module.
func (m *Monitor) Tick() {
	from, to := m.sides()
	// Telemetry observation point: receiver-side handshake events. Counting
	// and span recording only read latched channel state, so behaviour is
	// identical with or without a sink.
	if to.StartedNow() {
		m.observed++
		if m.now != nil {
			m.txnStart = m.now()
		}
	}
	if to.Fired() {
		m.observed++
		if m.track != nil {
			m.track.Span(m.bc.Info.Name, m.txnStart, m.now()+1)
		}
	}
	if m.enc == nil {
		return
	}
	if m.storeAndForward && !m.forwarding && !m.reserved && from.Valid.Get() && m.enc.CanAccept(m.ci) {
		// Store-and-forward: secure the encoder space now, begin
		// forwarding next cycle.
		m.enc.ReserveStart(m.ci)
		m.enc.ReserveEnd(m.ci)
		m.reserved = true
		m.forwarding = true
		m.Touch()
		return
	}
	if to.StartedNow() {
		m.logEventStart(from)
		m.forwarding = true
		m.Touch()
	}
	if to.Fired() {
		var content []byte
		if m.bc.Info.Dir == trace.Output && m.enc.meta.ValidateOutputs {
			if m.enc.lossy {
				// The end bit is still recorded; only its content is shed.
				m.gapped++
			}
			// The monitor forwards cut-through: to fires in exactly the
			// cycles from fires, so from's bus is live under to.Fired().
			//lint:handshake cut-through forwarding makes to.Fired() equivalent to from.Fired()
			content = from.Data.Get()
		}
		m.enc.LogEnd(m.ci, content)
		m.recorded++
		m.forwarding = false
		m.reserved = false
		m.Touch()
	}
}

// logEventStart records the start event (input channels carry content) and
// makes the eager end reservation.
func (m *Monitor) logEventStart(from *sim.Channel) {
	if m.bc.Info.Dir == trace.Input {
		m.enc.LogStart(m.ci, from.Data.Get())
		m.recorded++
	}
	m.enc.ReserveEnd(m.ci)
}
