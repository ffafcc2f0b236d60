package sim

// Channel is a unidirectional VALID/READY handshake channel between a single
// sender and a single receiver, as described in §2.1 of the Vidi paper
// (Fig 1). The sender drives Valid and Data; the receiver drives Ready. A
// transaction starts in the first cycle Valid is observed high and ends in
// the cycle both Valid and Ready are high.
//
// The simulator latches transaction events at each clock edge; modules read
// them during Tick via Fired, StartedNow and EndedNow.
type Channel struct {
	name  string
	width int

	Valid *Wire
	Ready *Wire
	Data  *Data

	// Latched at the clock edge for the cycle that just completed.
	fired      bool
	startedNow bool
	inFlight   bool

	startCycle uint64 // cycle at which the in-flight transaction started
	endCycle   uint64 // cycle at which the last transaction ended
	starts     uint64 // total transactions started
	ends       uint64 // total transactions completed

	// watchers are the indices of TickSensitive modules to wake when a
	// transaction starts or completes on this channel. Rebuilt by Build.
	watchers []int32
}

// NewChannel creates a handshake channel with a data payload of width bytes.
func (s *Simulator) NewChannel(name string, width int) *Channel {
	ch := &Channel{
		name:  name,
		width: width,
		Valid: s.NewWire(name + ".valid"),
		Ready: s.NewWire(name + ".ready"),
		Data:  s.NewData(name+".data", width),
	}
	ch.Valid.validOf = int32(len(s.channels)) + 1
	s.channels = append(s.channels, ch)
	return ch
}

// Name returns the channel's name.
func (ch *Channel) Name() string { return ch.name }

// SenderSignals returns the signals the sending side drives (Valid, Data),
// for use in Sensitivity declarations.
func (ch *Channel) SenderSignals() []Signal { return []Signal{ch.Valid, ch.Data} }

// ReceiverSignals returns the signal the receiving side drives (Ready).
func (ch *Channel) ReceiverSignals() []Signal { return []Signal{ch.Ready} }

// Signals returns all three of the channel's signals.
func (ch *Channel) Signals() []Signal { return []Signal{ch.Valid, ch.Ready, ch.Data} }

// Width returns the payload width in bytes.
func (ch *Channel) Width() int { return ch.width }

// latch records handshake events at the clock edge. Called by the simulator
// after the combinational fixpoint, before Tick. The kernel is not a module,
// so it reads the handshake without the sensitivity probe.
func (ch *Channel) latch(cycle uint64) {
	v, r := ch.Valid.peek(), ch.Ready.peek()
	ch.startedNow = v && !ch.inFlight
	ch.fired = v && r
	if ch.startedNow {
		ch.inFlight = true
		ch.startCycle = cycle
		ch.starts++
	}
	if ch.fired {
		ch.inFlight = false
		ch.endCycle = cycle
		ch.ends++
	}
}

// Fired reports whether a transaction completed (Valid && Ready) in the
// cycle that just ended. Valid only during Tick.
func (ch *Channel) Fired() bool { return ch.fired }

// StartedNow reports whether a transaction started (Valid rose while no
// transaction was in flight) in the cycle that just ended. A single-cycle
// transaction has StartedNow and Fired true in the same cycle. Valid only
// during Tick.
func (ch *Channel) StartedNow() bool { return ch.startedNow }

// InFlight reports whether a transaction has started but not yet completed.
func (ch *Channel) InFlight() bool { return ch.inFlight }

// Starts returns the total number of transactions started on this channel.
func (ch *Channel) Starts() uint64 { return ch.starts }

// Ends returns the total number of transactions completed on this channel.
func (ch *Channel) Ends() uint64 { return ch.ends }
