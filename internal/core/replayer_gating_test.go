package core

// Microtests of the replayer's happens-before gating with handcrafted
// traces, pinning down §3.5's semantics at the single-event level.

import (
	"testing"

	"vidi/internal/sim"
	"vidi/internal/trace"
)

// gateWorld is a two-input, one-output boundary with a scriptable app:
// input receivers are always ready, and the output asserts valid when told.
type gateWorld struct {
	sim      *sim.Simulator
	boundary *Boundary
	envA     *sim.Channel
	envB     *sim.Channel
	envOut   *sim.Channel
	app      *gateApp
}

type gateApp struct {
	a, b, out *sim.Channel
	// outQueue holds payloads the app offers on the output.
	outQueue [][]byte
	active   bool
	cur      []byte
	// Fired log, in cycle order.
	Log []string
	s   *sim.Simulator
}

func (g *gateApp) Name() string { return "gateapp" }
func (g *gateApp) Eval() {
	g.a.Ready.Set(true)
	g.b.Ready.Set(true)
	g.out.Valid.Set(g.active)
	if g.active {
		g.out.Data.Set(g.cur)
	}
}
func (g *gateApp) Tick() {
	if g.a.Fired() {
		g.Log = append(g.Log, "A")
	}
	if g.b.Fired() {
		g.Log = append(g.Log, "B")
	}
	if g.active && g.out.Fired() {
		g.Log = append(g.Log, "O")
		g.active = false
	}
	if !g.active && len(g.outQueue) > 0 {
		g.cur = g.outQueue[0]
		g.outQueue = g.outQueue[1:]
		g.active = true
	}
}

func newGateWorld() *gateWorld {
	s := sim.New()
	w := &gateWorld{sim: s, boundary: NewBoundary()}
	w.envA = s.NewChannel("env.A", 1)
	w.envB = s.NewChannel("env.B", 1)
	w.envOut = s.NewChannel("env.O", 1)
	appA := s.NewChannel("app.A", 1)
	appB := s.NewChannel("app.B", 1)
	appOut := s.NewChannel("app.O", 1)
	w.boundary.MustAdd(trace.ChannelInfo{Name: "A", Width: 1, Dir: trace.Input}, w.envA, appA)
	w.boundary.MustAdd(trace.ChannelInfo{Name: "B", Width: 1, Dir: trace.Input}, w.envB, appB)
	w.boundary.MustAdd(trace.ChannelInfo{Name: "O", Width: 1, Dir: trace.Output}, w.envOut, appOut)
	w.app = &gateApp{a: appA, b: appB, out: appOut, s: s}
	s.Register(w.app)
	return w
}

// handTrace builds a trace from a compact event script: each element is one
// cycle packet listing events like "A+", "A-", "B-", "O-" (start/end).
func handTrace(t *testing.T, m *trace.Meta, script [][]string) *trace.Trace {
	t.Helper()
	tr := trace.NewTrace(m)
	for _, evs := range script {
		pi := tr.Len()
		p := tr.Append(false)
		for _, ev := range evs {
			ci := m.ChannelByName(ev[:1])
			if ci < 0 {
				t.Fatalf("bad channel %q", ev)
			}
			switch ev[1] {
			case '+':
				p.Start(ci, []byte{byte(pi)})
			case '-':
				p.End(ci, nil)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func replayHand(t *testing.T, tr *trace.Trace, outOffers int) []string {
	t.Helper()
	w := newGateWorld()
	for i := 0; i < outOffers; i++ {
		w.app.outQueue = append(w.app.outQueue, []byte{byte(i)})
	}
	sh, err := NewShim(w.sim, w.boundary, Options{Mode: ModeReplay, ReplayTrace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.sim.Run(10000, sh.ReplayDone); err != nil {
		t.Fatal(err)
	}
	return w.app.Log
}

// TestGatingStartWaitsForPriorEnd: B's start is recorded strictly after A's
// end, so B must not fire before A even though both could.
func TestGatingStartWaitsForPriorEnd(t *testing.T) {
	w := newGateWorld()
	m := w.boundary.Meta(false)
	tr := handTrace(t, m, [][]string{
		{"A+"},
		{"A-"},
		{"B+", "B-"},
	})
	log := replayHand(t, tr, 0)
	if len(log) != 2 || log[0] != "A" || log[1] != "B" {
		t.Fatalf("replay order %v, want [A B]", log)
	}
}

// TestGatingConcurrentStartsMayShareCycle: A and B recorded in the same
// packet are unordered; both replay promptly.
func TestGatingConcurrentStarts(t *testing.T) {
	w := newGateWorld()
	m := w.boundary.Meta(false)
	tr := handTrace(t, m, [][]string{
		{"A+", "B+"},
		{"A-", "B-"},
	})
	log := replayHand(t, tr, 0)
	if len(log) != 2 {
		t.Fatalf("replayed %v", log)
	}
}

// TestGatingOutputEndWaits: the output's recorded end follows A's end, so
// the replayer must withhold READY (and thus "O") until A fires — even
// though the app offers the output transaction from cycle zero.
func TestGatingOutputEndWaits(t *testing.T) {
	w := newGateWorld()
	m := w.boundary.Meta(false)
	tr := handTrace(t, m, [][]string{
		{"A+"},
		{"A-"},
		{"O-"},
	})
	log := replayHand(t, tr, 1)
	if len(log) != 2 || log[0] != "A" || log[1] != "O" {
		t.Fatalf("replay order %v, want [A O]", log)
	}
}

// TestGatingOutputBeforeInput: the reverse recording — O's end precedes A's
// start — must replay with O first.
func TestGatingOutputBeforeInput(t *testing.T) {
	w := newGateWorld()
	m := w.boundary.Meta(false)
	tr := handTrace(t, m, [][]string{
		{"O-"},
		{"A+", "A-"},
	})
	log := replayHand(t, tr, 1)
	if len(log) != 2 || log[0] != "O" || log[1] != "A" {
		t.Fatalf("replay order %v, want [O A]", log)
	}
}

// TestGatingChain: a longer alternating chain must replay in exactly the
// recorded event order.
func TestGatingChain(t *testing.T) {
	w := newGateWorld()
	m := w.boundary.Meta(false)
	tr := handTrace(t, m, [][]string{
		{"A+", "A-"},
		{"O-"},
		{"B+", "B-"},
		{"O-"},
		{"A+"},
		{"A-"},
		{"O-"},
	})
	log := replayHand(t, tr, 3)
	want := []string{"A", "O", "B", "O", "A", "O"}
	if len(log) != len(want) {
		t.Fatalf("replay %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("replay %v, want %v", log, want)
		}
	}
}

// TestGatingReplayedContentsMatchTrace: the input replayer must drive the
// recorded content bytes.
func TestGatingReplayedContents(t *testing.T) {
	w := newGateWorld()
	m := w.boundary.Meta(false)
	tr := handTrace(t, m, [][]string{
		{"A+"},
		{"A-"},
		{"A+", "A-"},
	})
	// Contents were stamped with the packet index at build time: 0 and 2.
	w2 := newGateWorld()
	var got []byte
	probe := &contentProbe{ch: w2.boundary.Channels()[0].App, got: &got}
	w2.sim.Register(probe)
	sh, err := NewShim(w2.sim, w2.boundary, Options{Mode: ModeReplay, ReplayTrace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.sim.Run(10000, sh.ReplayDone); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("replayed contents %v, want [0 2]", got)
	}
	_ = w
}

type contentProbe struct {
	ch  *sim.Channel
	got *[]byte
}

func (p *contentProbe) Name() string { return "content-probe" }
func (p *contentProbe) Eval()        {}
func (p *contentProbe) Tick() {
	if p.ch.Fired() {
		*p.got = append(*p.got, p.ch.Data.Get()[0])
	}
}
