package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// combStage is a combinational pass-through between two channels: its
// Eval copies VALID and DATA forward and READY back, so a change on either
// side wakes it within the same settle.
type combStage struct {
	name    string
	in, out *Channel
}

func (c *combStage) Name() string { return c.name }
func (c *combStage) Eval() {
	c.out.Valid.Set(c.in.Valid.Get())
	c.out.Data.Set(c.in.Data.Get())
	c.in.Ready.Set(c.out.Ready.Get())
}
func (c *combStage) Sensitivity() Sensitivity {
	return Sensitivity{
		Reads:  []Signal{c.in.Valid, c.in.Data, c.out.Ready},
		Drives: []Signal{c.out.Valid, c.out.Data, c.in.Ready},
	}
}
func (c *combStage) EvalStable() bool      { return true }
func (c *combStage) Tick()                 {}
func (c *combStage) TickWatch() []*Channel { return nil }
func (c *combStage) TickStable() bool      { return true }

// ringRelay logs every payload that fires on its channel and forwards the
// first hops of them into another pipeline's sender, so its Tick wakes a
// module registered elsewhere in the schedule.
type ringRelay struct {
	NullEval
	name string
	s    *Simulator
	ch   *Channel
	next *Sender
	hops int
	log  []string
}

func (r *ringRelay) Name() string          { return r.name }
func (r *ringRelay) TickWatch() []*Channel { return []*Channel{r.ch} }
func (r *ringRelay) TickStable() bool      { return true }
func (r *ringRelay) Tick() {
	if !r.ch.Fired() {
		return
	}
	d := r.ch.Data.Snapshot()
	r.log = append(r.log, fmt.Sprintf("%d:%x", r.s.Cycle(), d))
	if r.hops > 0 {
		r.hops--
		r.next.Push(d)
	}
}

// tickValid is a registered VALID: its Tick raises the channel's VALID and
// lowers it again in the Tick that sees the handshake complete, leaving one
// idle cycle between transactions.
type tickValid struct {
	NullEval
	name   string
	s      *Simulator
	ch     *Channel
	left   int
	active bool
	log    []string
}

func (m *tickValid) Name() string          { return m.name }
func (m *tickValid) TickWatch() []*Channel { return []*Channel{m.ch} }
func (m *tickValid) TickStable() bool      { return m.active || m.left == 0 }
func (m *tickValid) Tick() {
	if m.active {
		if m.ch.Fired() {
			m.active = false
			m.ch.Valid.Set(false)
			m.log = append(m.log, fmt.Sprint(m.s.Cycle()))
		}
		return
	}
	if m.left > 0 {
		m.left--
		m.active = true
		m.ch.Data.SetUint64(uint64(m.left))
		m.ch.Valid.Set(true)
	}
}

// toggler drives out from a register it flips in each of its first left
// Ticks.
type toggler struct {
	EvalTracker
	name  string
	out   *Wire
	state bool
	left  int
}

func (t *toggler) Name() string             { return t.name }
func (t *toggler) Eval()                    { t.out.Set(t.state) }
func (t *toggler) Sensitivity() Sensitivity { return Sensitivity{Drives: []Signal{t.out}} }
func (t *toggler) TickWatch() []*Channel    { return nil }
func (t *toggler) TickStable() bool         { return t.left == 0 }
func (t *toggler) Tick() {
	if t.left > 0 {
		t.left--
		t.state = !t.state
		t.Touch()
	}
}

// glitcher drives VALID = a && !b. Registered after the toggler driving a
// and before the one driving b, it sees a rise before b in every settle
// after both flip high, so VALID goes high and back low within that settle.
type glitcher struct {
	name string
	a, b *Wire
	ch   *Channel
}

func (g *glitcher) Name() string { return g.name }
func (g *glitcher) Eval()        { g.ch.Valid.Set(g.a.Get() && !g.b.Get()) }
func (g *glitcher) Sensitivity() Sensitivity {
	return Sensitivity{Reads: []Signal{g.a, g.b}, Drives: []Signal{g.ch.Valid}}
}
func (g *glitcher) EvalStable() bool      { return true }
func (g *glitcher) Tick()                 {}
func (g *glitcher) TickWatch() []*Channel { return nil }
func (g *glitcher) TickStable() bool      { return true }

// widePipes is the number of pipelines in the wide design: 16 of 6 modules
// and 4 channels each, plus the extras below, puts both the schedule (102
// modules) and the channel list (67 channels) into a second bitset word.
const widePipes = 16

// wideDesign is a design larger than one bitset word, with its modules
// registered in a shuffled order so that signal changes, Touch hooks, wake
// hooks and handshakes all cross between words in both directions.
type wideDesign struct {
	s        *Simulator
	index    map[Module]int // registration index
	senders  []*Sender
	fifos    []*Fifo // the fifo driving each pipeline's comb stage
	combs    []*combStage
	rcvs     []*Receiver
	relays   []*ringRelay
	tv       *tickValid
	callerCh *Channel
	tickCh   *Channel
	glitchCh *Channel
	ctr      *horizonCounter
}

func buildWide(s *Simulator) *wideDesign {
	d := &wideDesign{s: s, index: map[Module]int{}}
	var ins, mids, mid2s, outs []*Channel
	for k, chs := range []*[]*Channel{&ins, &mids, &mid2s, &outs} {
		for i := 0; i < widePipes; i++ {
			*chs = append(*chs, s.NewChannel(fmt.Sprintf("w%d.c%d", i, k), 4))
		}
	}
	var mods []Module
	for i := 0; i < widePipes; i++ {
		snd := NewSender(fmt.Sprintf("w%d.snd", i), ins[i])
		snd.Gap = GapPolicy(NewRand(int64(i)), 0, 3)
		for p := 0; p < 4; p++ {
			snd.Push(payload(i*100 + p))
		}
		f1 := NewFifo(fmt.Sprintf("w%d.f1", i), ins[i], mids[i], 2)
		comb := &combStage{name: fmt.Sprintf("w%d.comb", i), in: mids[i], out: mid2s[i]}
		f2 := NewFifo(fmt.Sprintf("w%d.f2", i), mid2s[i], outs[i], 3)
		rcv := NewReceiver(fmt.Sprintf("w%d.rcv", i), outs[i])
		rcv.Policy = JitterPolicy(NewRand(int64(100+i)), 60)
		d.senders = append(d.senders, snd)
		d.fifos = append(d.fifos, f1)
		d.combs = append(d.combs, comb)
		d.rcvs = append(d.rcvs, rcv)
		mods = append(mods, snd, f1, comb, f2, rcv)
	}
	for i := 0; i < widePipes; i++ {
		r := &ringRelay{name: fmt.Sprintf("w%d.relay", i), s: s, ch: outs[i], next: d.senders[(i+1)%widePipes], hops: 6}
		d.relays = append(d.relays, r)
		mods = append(mods, r)
	}
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(mods), func(i, j int) { mods[i], mods[j] = mods[j], mods[i] })

	// The glitch: toggler a in word 0, the glitcher after it, toggler b in
	// word 1, and the glitch channel in word 1.
	a := &toggler{name: "glitch.a", out: s.NewWire("glitch.a"), left: 40}
	b := &toggler{name: "glitch.b", out: s.NewWire("glitch.b"), left: 40}
	d.glitchCh = s.NewChannel("glitch", 4)
	g := &glitcher{name: "glitch", a: a.out, b: b.out, ch: d.glitchCh}
	mods = slices.Insert(mods, 5, Module(a))
	mods = slices.Insert(mods, 30, Module(g))
	mods = append(mods, b)

	// A VALID raised in Tick and a VALID raised by the caller, both on
	// channels in word 1.
	d.tickCh = s.NewChannel("tickvalid", 8)
	d.tv = &tickValid{name: "tickvalid", s: s, ch: d.tickCh, left: 200}
	tvRcv := NewReceiver("tickvalid.rcv", d.tickCh)
	tvRcv.Policy = JitterPolicy(NewRand(7), 50)
	d.callerCh = s.NewChannel("caller", 8)
	callerRcv := NewReceiver("caller.rcv", d.callerCh)
	callerRcv.Policy = JitterPolicy(NewRand(8), 50)
	d.rcvs = append(d.rcvs, tvRcv, callerRcv)
	mods = append(mods, d.tv, tvRcv, callerRcv)

	for i, m := range mods {
		d.index[m] = i
	}
	s.Register(mods...)
	return d
}

// word is the bitset word holding module m.
func (d *wideDesign) word(m Module) int { return d.index[m] / 64 }

// run drives the wide design through three stretches and returns its
// observable history:
//
//  1. 250 Steps with jittered receivers, the caller raising and lowering
//     VALID between Steps;
//  2. after the first of them that leaves a transaction in flight on a
//     word-1 channel and the registered VALID low over a just-latched fire,
//     a Register that rebuilds the schedule;
//  3. a Run with every receiver made always-ready, which drains the design
//     and then batches until the registered counter fires.
func (d *wideDesign) run(t *testing.T) []string {
	t.Helper()
	s := d.s
	var hist []string
	callerActive := false
	for s.Cycle() < 250 {
		if callerActive && d.callerCh.Fired() {
			callerActive = false
			d.callerCh.Valid.Set(false)
			hist = append(hist, fmt.Sprintf("caller fired %d", s.Cycle()))
		} else if !callerActive && s.Cycle()%5 == 0 {
			callerActive = true
			d.callerCh.Data.SetUint64(s.Cycle())
			d.callerCh.Valid.Set(true)
		}
		if d.ctr == nil && s.Cycle() >= 60 && d.tickCh.Fired() && !d.tickCh.Valid.peek() && d.inFlightAbove64() {
			d.ctr = &horizonCounter{name: "late.ctr", left: 3000}
			s.Register(d.ctr)
			hist = append(hist, fmt.Sprintf("register %d", s.Cycle()))
		}
		if err := s.Step(); err != nil {
			t.Fatalf("cycle %d: %v", s.Cycle(), err)
		}
	}
	if d.ctr == nil {
		t.Fatal("no cycle had a word-1 transaction in flight beside a just-fired registered VALID")
	}
	d.callerCh.Valid.Set(false)
	for _, r := range d.rcvs {
		r.Policy = nil
	}
	if _, err := s.Run(100000, func() bool { return d.ctr.fires > 0 }); err != nil {
		t.Fatal(err)
	}
	for _, r := range d.relays {
		hist = append(hist, r.log...)
	}
	for _, r := range d.rcvs {
		hist = append(hist, fmt.Sprintf("%s received %x", r.Name(), r.Received))
	}
	hist = append(hist, fmt.Sprintf("tickvalid %v", d.tv.log),
		fmt.Sprintf("glitch starts %d, valid changes %d", d.glitchCh.Starts(), d.glitchCh.Valid.gen()),
		fmt.Sprintf("end %d", s.Cycle()))
	return hist
}

func (d *wideDesign) inFlightAbove64() bool {
	for _, ch := range d.s.Channels()[64:] {
		if ch.InFlight() {
			return true
		}
	}
	return false
}

// TestSchedulerMatchesLegacyAcrossWords is the multi-word counterpart of
// TestSchedulerMatchesLegacy: on a design with more than 64 modules and more
// than 64 channels, the scheduler must reproduce the legacy kernel's history
// exactly, and its counters must be the exact ones of a schedule that scans
// every module and channel in each phase.
func TestSchedulerMatchesLegacyAcrossWords(t *testing.T) {
	runKernel := func(legacy bool) (*wideDesign, []string, Stats) {
		s := New()
		s.SetLegacy(legacy)
		s.SetSensitivityCheck(!legacy)
		d := buildWide(s)
		hist := d.run(t)
		return d, hist, s.Stats()
	}
	_, ref, _ := runKernel(true)
	d, got, st := runKernel(false)

	// The design must exercise what it is built for.
	if n, c := len(d.index), len(d.s.Channels()); n <= 64 || c <= 64 {
		t.Fatalf("%d modules and %d channels, want both above 64", n, c)
	}
	var settleUp, settleDown, tickUp, tickDown bool
	for i := range d.combs {
		// f1's Eval drives the comb stage's inputs; the relay's Tick pushes
		// into the next pipeline's sender.
		fw, cw := d.word(d.fifos[i]), d.word(d.combs[i])
		settleUp = settleUp || fw < cw
		settleDown = settleDown || fw > cw
		rw, sw := d.word(d.relays[i]), d.word(d.relays[i].next)
		tickUp = tickUp || rw < sw
		tickDown = tickDown || rw > sw
	}
	if !settleUp || !settleDown || !tickUp || !tickDown {
		t.Fatalf("wakes across words: settle up %v down %v, tick up %v down %v", settleUp, settleDown, tickUp, tickDown)
	}
	if !slices.Contains(got, "glitch starts 0, valid changes 40") {
		t.Fatalf("glitch channel did not pulse within settles: %v", got[len(got)-2])
	}
	if !reflect.DeepEqual(got, ref) {
		for i := range ref {
			if i >= len(got) || got[i] != ref[i] {
				t.Fatalf("history diverges from legacy at entry %d:\nscheduler %v\nlegacy    %v", i, got[i:min(i+1, len(got))], ref[i])
			}
		}
		t.Fatalf("scheduler history has %d entries, legacy %d", len(got), len(ref))
	}
	// The counters of a schedule that scans every module and channel in
	// each phase; all of them are exact, so any change is a behaviour change.
	want := Stats{Cycles: 3077, EvalCalls: 3698, SettleWaves: 293, SkippedEvals: 343217, SkippedTicks: 309928, BatchedCycles: 2595}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("scheduler counters\n got %v\nwant %v", st, want)
	}
}

// countSource offers an endless sequence of 8-byte counters.
type countSource struct {
	EvalTracker
	name string
	ch   *Channel
	n    uint64
}

func (m *countSource) Name() string { return m.name }
func (m *countSource) Eval() {
	m.ch.Valid.Set(true)
	m.ch.Data.SetUint64(m.n)
}
func (m *countSource) Sensitivity() Sensitivity { return Sensitivity{Drives: m.ch.SenderSignals()} }
func (m *countSource) TickWatch() []*Channel    { return []*Channel{m.ch} }
func (m *countSource) TickStable() bool         { return true }
func (m *countSource) Tick() {
	if m.ch.Fired() {
		m.n++
		m.Touch()
	}
}

// regSlice is a one-entry register slice between two channels.
type regSlice struct {
	EvalTracker
	name    string
	in, out *Channel
	full    bool
	v       uint64
}

func (m *regSlice) Name() string { return m.name }
func (m *regSlice) Eval() {
	m.in.Ready.Set(!m.full)
	m.out.Valid.Set(m.full)
	m.out.Data.SetUint64(m.v)
}
func (m *regSlice) Sensitivity() Sensitivity {
	return Sensitivity{Drives: []Signal{m.in.Ready, m.out.Valid, m.out.Data}}
}
func (m *regSlice) TickWatch() []*Channel { return []*Channel{m.in, m.out} }
func (m *regSlice) TickStable() bool      { return true }
func (m *regSlice) Tick() {
	if m.out.Fired() {
		m.full = false
		m.Touch()
	}
	if m.in.Fired() {
		m.full, m.v = true, m.in.Data.Uint64()
		m.Touch()
	}
}

// countSink accepts with seeded jitter and counts completed handshakes.
type countSink struct {
	EvalTracker
	name  string
	ch    *Channel
	rng   *rand.Rand
	ready bool
	n     int
}

func (m *countSink) Name() string             { return m.name }
func (m *countSink) Eval()                    { m.ch.Ready.Set(m.ready) }
func (m *countSink) Sensitivity() Sensitivity { return Sensitivity{Drives: m.ch.ReceiverSignals()} }
func (m *countSink) TickWatch() []*Channel    { return []*Channel{m.ch} }
func (m *countSink) TickStable() bool         { return false }
func (m *countSink) Tick() {
	if m.ch.Fired() {
		m.n++
	}
	if r := m.rng.Intn(4) != 0; r != m.ready {
		m.ready = r
		m.Touch()
	}
}

// buildSlices registers chains source → 16 register slices → sink: four of
// them span 72 modules and 68 channels.
func buildSlices(s *Simulator, chains int) []*countSink {
	var sinks []*countSink
	for c := 0; c < chains; c++ {
		ch := s.NewChannel(fmt.Sprintf("s%d.c0", c), 8)
		s.Register(&countSource{name: fmt.Sprintf("s%d.src", c), ch: ch})
		for i := 1; i <= 16; i++ {
			next := s.NewChannel(fmt.Sprintf("s%d.c%d", c, i), 8)
			s.Register(&regSlice{name: fmt.Sprintf("s%d.r%d", c, i), in: ch, out: next})
			ch = next
		}
		sink := &countSink{name: fmt.Sprintf("s%d.sink", c), ch: ch, rng: NewRand(int64(c))}
		s.Register(sink)
		sinks = append(sinks, sink)
	}
	return sinks
}

// TestKernelPhasesDoNotAllocate guards the kernel's per-cycle work: settling,
// latching and ticking a busy design, and batching an idle one, walk the
// activity sets in place and allocate nothing.
func TestKernelPhasesDoNotAllocate(t *testing.T) {
	t.Run("busy step", func(t *testing.T) {
		s := New()
		sinks := buildSlices(s, 4)
		for i := 0; i < 100; i++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		before := sinks[3].n
		if a := testing.AllocsPerRun(200, func() {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Fatalf("Step allocates %v times per cycle", a)
		}
		if sinks[3].n == before {
			t.Fatal("the pipeline was not busy")
		}
	})
	t.Run("batched run", func(t *testing.T) {
		s := New()
		// An idle design across two words beside a horizon counter: every
		// Run below batches almost all of its 1000 cycles.
		for i := 0; i < 70; i++ {
			ch := s.NewChannel(fmt.Sprintf("idle%d", i), 4)
			s.Register(NewSender(fmt.Sprintf("idle%d.snd", i), ch), NewReceiver(fmt.Sprintf("idle%d.rcv", i), ch))
		}
		ctr := &horizonCounter{name: "ctr"}
		s.Register(ctr)
		run := func() {
			ctr.left = 1000
			if ctr.wake != nil {
				ctr.wake()
			}
			if _, err := s.Run(2000, func() bool { return ctr.left == 0 }); err != nil {
				t.Fatal(err)
			}
		}
		run()
		batched := s.Stats().BatchedCycles
		if a := testing.AllocsPerRun(20, run); a != 0 {
			t.Fatalf("Run allocates %v times per 1000 cycles", a)
		}
		if s.Stats().BatchedCycles-batched < 20*900 {
			t.Fatalf("Run batched %d cycles, want most of them", s.Stats().BatchedCycles-batched)
		}
	})
}
