package sim

import (
	"errors"
	"fmt"
	"testing"
)

// nopModule is a minimal module with a configurable name.
type nopModule struct{ name string }

func (m *nopModule) Name() string { return m.name }
func (m *nopModule) Eval()        {}
func (m *nopModule) Tick()        {}

func TestBuildRejectsDuplicateModuleName(t *testing.T) {
	s := New()
	s.Register(&nopModule{name: "dup"}, &nopModule{name: "dup"})
	err := s.Build()
	if err == nil {
		t.Fatal("Build accepted two modules named \"dup\"")
	}
	if !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("err = %v, want ErrDuplicateName", err)
	}
	var dn *DuplicateNameError
	if !errors.As(err, &dn) {
		t.Fatalf("err = %T, want *DuplicateNameError", err)
	}
	if dn.Kind != "module" || dn.Name != "dup" {
		t.Fatalf("got %q %q, want module dup", dn.Kind, dn.Name)
	}
	// Step surfaces the same error through the lazy build.
	if err := s.Step(); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("Step() = %v, want ErrDuplicateName", err)
	}
}

func TestBuildRejectsDuplicateSignalAndChannelNames(t *testing.T) {
	cases := []struct {
		kind string
		prep func(s *Simulator)
	}{
		{"wire", func(s *Simulator) { s.NewWire("w"); s.NewWire("w") }},
		{"data", func(s *Simulator) { s.NewData("d", 32); s.NewData("d", 32) }},
		// A channel owns a wire/data triple under derived names, so two
		// channels with one name collide on those too; the channel check runs
		// first so the error names the channel, not a derived wire.
		{"channel", func(s *Simulator) { s.NewChannel("ch", 4); s.NewChannel("ch", 4) }},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			s := New()
			tc.prep(s)
			err := s.Build()
			var dn *DuplicateNameError
			if !errors.As(err, &dn) {
				t.Fatalf("Build() = %v, want *DuplicateNameError", err)
			}
			if dn.Kind == "" || dn.Name == "" {
				t.Fatalf("empty fields in %+v", dn)
			}
		})
	}
}

// buildPipelines constructs n independent sender→fifo→receiver pipelines and
// returns the receivers' channels for observation. With jitter set the
// receivers follow a seeded random readiness policy (so the pipelines
// exercise interesting interleavings); without it they are always ready and
// the whole design goes quiet once drained.
func buildPipelines(s *Simulator, n, payloads int, jitter bool) ([]*Sender, []*Channel) {
	senders := make([]*Sender, n)
	outs := make([]*Channel, n)
	for i := 0; i < n; i++ {
		in := s.NewChannel(fmt.Sprintf("p%d.in", i), 4)
		out := s.NewChannel(fmt.Sprintf("p%d.out", i), 4)
		snd := NewSender(fmt.Sprintf("p%d.snd", i), in)
		fifo := NewFifo(fmt.Sprintf("p%d.fifo", i), in, out, 2)
		rcv := NewReceiver(fmt.Sprintf("p%d.rcv", i), out)
		if jitter {
			rng := NewRand(int64(1000 + i))
			rcv.Policy = JitterPolicy(rng, 70)
		}
		s.Register(snd, fifo, rcv)
		for p := 0; p < payloads; p++ {
			snd.Push(payload(i*100 + p))
		}
		senders[i] = snd
		outs[i] = out
	}
	return senders, outs
}

// tapProbe records every payload that fires on a channel, with the cycle.
type tapProbe struct {
	NullEval
	name string
	s    *Simulator
	ch   *Channel
	log  []string
}

func (p *tapProbe) Name() string { return p.name }
func (p *tapProbe) Tick() {
	if p.ch.Fired() {
		p.log = append(p.log, fmt.Sprintf("%d:%x", p.s.Cycle(), p.ch.Data.Get()))
	}
}

// runPipelines executes the n-pipeline design under the given kernel config
// and returns each pipeline's fire log.
func runPipelines(t *testing.T, n, payloads int, legacy bool) [][]string {
	t.Helper()
	s := New()
	s.SetLegacy(legacy)
	senders, outs := buildPipelines(s, n, payloads, true)
	probes := make([]*tapProbe, n)
	for i, out := range outs {
		probes[i] = &tapProbe{name: fmt.Sprintf("p%d.tap", i), s: s, ch: out}
		s.Register(probes[i])
	}
	done := func() bool {
		for _, snd := range senders {
			if !snd.Idle() {
				return false
			}
		}
		return true
	}
	if _, err := s.Run(100000, done); err != nil {
		t.Fatalf("run (legacy=%v): %v", legacy, err)
	}
	logs := make([][]string, n)
	for i, p := range probes {
		logs[i] = p.log
	}
	return logs
}

// TestSchedulerMatchesLegacy is the kernel's determinism regression: N
// independent pipelines must produce cycle-identical fire sequences on the
// legacy fixpoint kernel and the sensitivity scheduler.
func TestSchedulerMatchesLegacy(t *testing.T) {
	const n, payloads = 8, 50
	ref := runPipelines(t, n, payloads, true)
	got := runPipelines(t, n, payloads, false)
	for i := range ref {
		if len(got[i]) != len(ref[i]) {
			t.Fatalf("pipeline %d fired %d times, legacy %d", i, len(got[i]), len(ref[i]))
		}
		for j := range ref[i] {
			if got[i][j] != ref[i][j] {
				t.Fatalf("pipeline %d event %d = %s, legacy %s", i, j, got[i][j], ref[i][j])
			}
		}
	}
}

func TestStatsCountSkippedEvals(t *testing.T) {
	s := New()
	senders, _ := buildPipelines(s, 2, 3, false)
	done := func() bool { return senders[0].Idle() && senders[1].Idle() }
	if _, err := s.Run(10000, done); err != nil {
		t.Fatal(err)
	}
	// Drain the Touch marks left by the final active cycle, then idle the
	// design: every module is stable, so the dirty-set kernel should stop
	// evaluating entirely.
	for i := 0; i < 3; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	for i := 0; i < 100; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	after := s.Stats()
	if after.EvalCalls != before.EvalCalls {
		t.Errorf("idle cycles still evaluated: %d -> %d", before.EvalCalls, after.EvalCalls)
	}
	if got := after.SkippedEvals - before.SkippedEvals; got == 0 {
		t.Error("idle cycles recorded no skipped evals")
	}
	if after.Cycles != s.Cycle() {
		t.Errorf("Stats.Cycles = %d, Cycle() = %d", after.Cycles, s.Cycle())
	}
}

// gatedCounter is a TickSensitive module that counts its Ticks: it watches
// one channel and claims stability, so the scheduler should only tick it on
// cycles with handshake activity (or after an explicit wake).
type gatedCounter struct {
	NullEval
	name  string
	ch    *Channel
	wake  func()
	ticks int
}

func (g *gatedCounter) Name() string             { return g.name }
func (g *gatedCounter) Tick()                    { g.ticks++ }
func (g *gatedCounter) TickWatch() []*Channel    { return []*Channel{g.ch} }
func (g *gatedCounter) TickStable() bool         { return true }
func (g *gatedCounter) BindTickWake(wake func()) { g.wake = wake }

func TestTickGatingSkipsQuietModules(t *testing.T) {
	s := New()
	ch := s.NewChannel("ch", 4)
	snd := NewSender("snd", ch)
	rcv := NewReceiver("rcv", ch)
	cnt := &gatedCounter{name: "cnt", ch: ch}
	s.Register(snd, rcv, cnt)

	// One payload: the transaction starts and fires, then the design idles.
	snd.Push(payload(1))
	for i := 0; i < 50; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	fires := int(ch.Ends())
	if fires != 1 {
		t.Fatalf("channel fired %d times, want 1", fires)
	}
	// The counter ticks on cycle 0 (everything ticks once after Build) and on
	// each cycle with handshake activity on its watched channel: the start
	// and the fire, which here land on the same cycle.
	if cnt.ticks != 2 {
		t.Errorf("gated module ticked %d times over 50 cycles, want 2", cnt.ticks)
	}
	st := s.Stats()
	if st.SkippedTicks == 0 {
		t.Error("no ticks skipped on an idle design")
	}

	// An explicit wake runs exactly one more Tick.
	before := cnt.ticks
	cnt.wake()
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if cnt.ticks != before+1 {
		t.Errorf("ticks after wake = %d, want %d", cnt.ticks, before+1)
	}
}

func TestTickGatingIdleDesignStopsTicking(t *testing.T) {
	s := New()
	senders, _ := buildPipelines(s, 2, 3, false)
	done := func() bool { return senders[0].Idle() && senders[1].Idle() }
	if _, err := s.Run(10000, done); err != nil {
		t.Fatal(err)
	}
	// Let the drained design settle into full sleep, then count skips: with
	// senders, fifos and always-ready receivers all gated, the scheduler
	// should skip its whole tick scan on every idle cycle.
	for i := 0; i < 3; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	const idle = 100
	for i := 0; i < idle; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	after := s.Stats()
	wantSkips := uint64(idle * 6) // 2 pipelines x 3 modules, all asleep
	if got := after.SkippedTicks - before.SkippedTicks; got != wantSkips {
		t.Errorf("idle design skipped %d ticks over %d cycles, want %d", got, idle, wantSkips)
	}
}

func TestReadsAllFallbackReported(t *testing.T) {
	s := New()
	buildPipelines(s, 3, 1, false)
	// nopModule does not implement Sensitive, so it gets the ReadsAll
	// fallback, which Stats must surface by name.
	s.Register(&nopModule{name: "legacy-style"})
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ReadsAllModules; len(got) != 1 || got[0] != "legacy-style" {
		t.Fatalf("ReadsAllModules = %v, want [legacy-style]", got)
	}
}
