package sim

import "math/rand"

// Sender drives a channel from a queue of payloads. It is a Moore machine:
// Valid and Data are functions of registered state only, so once a payload is
// offered it stays stable until the handshake completes, as the protocol
// requires.
type Sender struct {
	EvalTracker
	name  string
	ch    *Channel
	queue [][]byte

	active bool
	cur    []byte

	// Gap, if non-nil, returns the number of idle cycles to insert before
	// offering the next payload. It models sender-side timing jitter.
	Gap func() int
	gap int

	tickWake func()
}

// NewSender creates a sender for ch. Payloads are offered in Push order.
func NewSender(name string, ch *Channel) *Sender {
	return &Sender{name: name, ch: ch}
}

// Name implements Module.
func (s *Sender) Name() string { return s.name }

// Push enqueues a payload for transmission. b is copied.
func (s *Sender) Push(b []byte) {
	c := make([]byte, len(b))
	copy(c, b)
	s.queue = append(s.queue, c)
	if s.tickWake != nil {
		s.tickWake()
	}
}

// BindTickWake implements TickWakeable; Push wakes a sleeping sender.
func (s *Sender) BindTickWake(wake func()) { s.tickWake = wake }

// TickWatch implements TickSensitive.
func (s *Sender) TickWatch() []*Channel { return []*Channel{s.ch} }

// TickStable implements TickSensitive: an in-flight offer only needs a Tick
// when its channel fires; a drained sender only when Push wakes it. A gap
// countdown or queued payload keeps it awake.
func (s *Sender) TickStable() bool {
	return (s.active || len(s.queue) == 0) && s.gap == 0
}

// Idle reports whether the sender has nothing queued or in flight.
func (s *Sender) Idle() bool { return !s.active && len(s.queue) == 0 }

// Eval implements Module.
func (s *Sender) Eval() {
	s.ch.Valid.Set(s.active)
	if s.active {
		s.ch.Data.Set(s.cur)
	}
}

// Sensitivity implements Sensitive: outputs are a function of registered
// state only.
func (s *Sender) Sensitivity() Sensitivity {
	return Sensitivity{Drives: s.ch.SenderSignals()}
}

// Tick implements Module.
func (s *Sender) Tick() {
	if s.active && s.ch.Fired() {
		s.active = false
		s.Touch()
		if s.Gap != nil {
			s.gap = s.Gap()
		}
	}
	if !s.active {
		if s.gap > 0 {
			s.gap--
			return
		}
		if len(s.queue) > 0 {
			s.cur = s.queue[0]
			s.queue = s.queue[1:]
			s.active = true
			s.Touch()
		}
	}
}

// Receiver accepts transactions on a channel and records the received
// payloads. Readiness is registered (decided at the previous clock edge) and
// controlled by the Policy function, which models receiver-side jitter.
type Receiver struct {
	EvalTracker
	name string
	ch   *Channel

	// Policy reports whether the receiver will be ready in the next cycle.
	// A nil policy is always ready.
	Policy func() bool

	ready    bool
	Received [][]byte
}

// NewReceiver creates an always-ready receiver for ch.
func NewReceiver(name string, ch *Channel) *Receiver {
	return &Receiver{name: name, ch: ch, ready: true}
}

// Name implements Module.
func (r *Receiver) Name() string { return r.name }

// Eval implements Module.
func (r *Receiver) Eval() { r.ch.Ready.Set(r.ready) }

// Sensitivity implements Sensitive.
func (r *Receiver) Sensitivity() Sensitivity {
	return Sensitivity{Drives: r.ch.ReceiverSignals()}
}

// TickWatch implements TickSensitive.
func (r *Receiver) TickWatch() []*Channel { return []*Channel{r.ch} }

// TickStable implements TickSensitive: a jittered receiver draws from its
// policy's random source every cycle, so it must never sleep (gating it
// would change the stream); an always-ready receiver only reacts to fires.
// A receiver left not-ready (by a policy later removed) stays awake until
// it has re-asserted readiness.
func (r *Receiver) TickStable() bool { return r.Policy == nil && r.ready }

// Tick implements Module.
func (r *Receiver) Tick() {
	if r.ch.Fired() {
		r.Received = append(r.Received, r.ch.Data.Snapshot())
	}
	next := true
	if r.Policy != nil {
		next = r.Policy()
	}
	if next != r.ready {
		r.ready = next
		r.Touch()
	}
}

// Fifo is a depth-bounded queue between an input and an output channel. It
// acts as the receiver of in and the sender of out.
type Fifo struct {
	EvalTracker
	name   string
	in     *Channel
	out    *Channel
	depth  int
	buf    [][]byte
	maxLen int
}

// NewFifo creates a FIFO of the given depth connecting in to out.
func NewFifo(name string, in, out *Channel, depth int) *Fifo {
	return &Fifo{name: name, in: in, out: out, depth: depth}
}

// Name implements Module.
func (f *Fifo) Name() string { return f.name }

// Len reports the current occupancy.
func (f *Fifo) Len() int { return len(f.buf) }

// Cap reports the configured depth.
func (f *Fifo) Cap() int { return f.depth }

// MaxLen reports the high-water occupancy observed so far (including
// preloaded tokens) — the basis of occupancy histograms in coverage
// feedback.
func (f *Fifo) MaxLen() int { return f.maxLen }

// Preload appends an initial token before the run starts, seeding feedback
// loops with their initial population. b is copied. Preloading beyond the
// configured depth panics: that design could never exist in hardware.
func (f *Fifo) Preload(b []byte) {
	if len(f.buf) >= f.depth {
		panic("sim: Fifo.Preload beyond capacity of " + f.name)
	}
	c := make([]byte, len(b))
	copy(c, b)
	f.buf = append(f.buf, c)
	if len(f.buf) > f.maxLen {
		f.maxLen = len(f.buf)
	}
}

// Eval implements Module.
func (f *Fifo) Eval() {
	f.in.Ready.Set(len(f.buf) < f.depth)
	f.out.Valid.Set(len(f.buf) > 0)
	if len(f.buf) > 0 {
		f.out.Data.Set(f.buf[0])
	}
}

// Sensitivity implements Sensitive.
func (f *Fifo) Sensitivity() Sensitivity {
	return Sensitivity{Drives: []Signal{f.in.Ready, f.out.Valid, f.out.Data}}
}

// TickWatch implements TickSensitive.
func (f *Fifo) TickWatch() []*Channel { return []*Channel{f.in, f.out} }

// TickStable implements TickSensitive: the FIFO's Tick acts only on
// handshake events of its two channels.
func (f *Fifo) TickStable() bool { return true }

// Tick implements Module.
func (f *Fifo) Tick() {
	if f.out.Fired() {
		f.buf = f.buf[1:]
		f.Touch()
	}
	if f.in.Fired() {
		f.buf = append(f.buf, f.in.Data.Snapshot())
		if len(f.buf) > f.maxLen {
			f.maxLen = len(f.buf)
		}
		f.Touch()
	}
}

// NewRand returns a deterministic pseudo-random source. All timing jitter in
// the simulated environment flows from explicitly seeded sources so that
// recorded executions can be reproduced exactly when desired and perturbed
// when modelling real-world non-determinism.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// JitterPolicy returns a readiness policy that is ready with probability
// p (in percent) each cycle, driven by rng.
func JitterPolicy(rng *rand.Rand, p int) func() bool {
	return func() bool { return rng.Intn(100) < p }
}

// GapPolicy returns a sender gap function producing uniform gaps in [min,max].
func GapPolicy(rng *rand.Rand, min, max int) func() int {
	if max < min {
		max = min
	}
	return func() int { return min + rng.Intn(max-min+1) }
}
