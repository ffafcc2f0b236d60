package design

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"vidi/internal/sim"
)

// runCompiled lowers g onto a raw simulator between a Sender and a
// Receiver, pushes the input stream (with sender-side gap jitter drawn from
// seed) and returns the received stream and the cycle count.
func runCompiled(t *testing.T, g *Graph, in []uint32, seed int64, legacy, audit bool, opt CompileOptions) ([]uint32, uint64) {
	t.Helper()
	s := sim.New()
	s.SetLegacy(legacy)
	if audit {
		s.SetSensitivityCheck(true)
	}
	inCh := s.NewChannel("t.in", tokBytes)
	outCh := s.NewChannel("t.out", tokBytes)
	send := sim.NewSender("t-send", inCh)
	if seed != 0 {
		send.Gap = sim.GapPolicy(sim.NewRand(seed), 0, 3)
	}
	recv := sim.NewReceiver("t-recv", outCh)
	s.Register(send, recv)
	g.Compile(s, inCh, outCh, opt)
	for _, x := range in {
		send.Push(encTok(x))
	}
	cycles, err := s.Run(500_000, func() bool { return len(recv.Received) >= len(in) })
	if err != nil {
		t.Fatalf("compiled run (legacy=%v): %v\ngraph: %s", legacy, err, g.JSON())
	}
	out := make([]uint32, len(recv.Received))
	for i, b := range recv.Received {
		out[i] = decTok(b)
	}
	return out, cycles
}

func streamEq(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func testInput(seed int64, n int) []uint32 {
	rng := sim.NewRand(seed)
	in := make([]uint32, n)
	for i := range in {
		in[i] = rng.Uint32()
	}
	return in
}

func TestGoldenKnownValues(t *testing.T) {
	// fork "sub": branches not(x) and identity ⇒ ^x - x.
	g, err := New(Fork("sub", Compute("not", 1, 0), Fifo(1)))
	if err != nil {
		t.Fatal(err)
	}
	got := g.Golden([]uint32{10, 20})
	want := []uint32{^uint32(10) - 10, ^uint32(20) - 20}
	if !streamEq(got, want) {
		t.Fatalf("fork golden: got %v, want %v", got, want)
	}

	// loop "add" with init {100}: out[k] = in[k] + out[k-1].
	g, err = New(Loop("add", []uint32{100}, Fifo(2)))
	if err != nil {
		t.Fatal(err)
	}
	got = g.Golden([]uint32{1, 2, 3})
	want = []uint32{101, 103, 106}
	if !streamEq(got, want) {
		t.Fatalf("loop golden: got %v, want %v", got, want)
	}

	// deal: even tokens through not, odd through identity.
	g, err = New(Deal(Compute("not", 1, 0), Fifo(1)))
	if err != nil {
		t.Fatal(err)
	}
	got = g.Golden([]uint32{1, 2, 3, 4})
	want = []uint32{^uint32(1), 2, ^uint32(3), 4}
	if !streamEq(got, want) {
		t.Fatalf("deal golden: got %v, want %v", got, want)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		root Node
	}{
		{"unknown kind", Node{Kind: "nope"}},
		{"missing kind", Node{}},
		{"fifo depth", Fifo(0)},
		{"fifo stray op", Node{Kind: KindFifo, Depth: 1, Op: "not"}},
		{"compute op", Compute("bogus", 1, 0)},
		{"compute latency", Compute("not", 0, 0)},
		{"clockdiv ratio", ClockDiv(1)},
		{"empty pipe", Pipe()},
		{"one-armed fork", Fork("xor", Fifo(1))},
		{"fork op", Fork("nope", Fifo(1), Fifo(1))},
		{"loop no init", Node{Kind: KindLoop, Op: "xor", Body: &Node{Kind: KindFifo, Depth: 1}}},
		{"loop stray ratio", Node{Kind: KindLoop, Op: "xor", Ratio: 2, Init: []uint32{1},
			Body: &Node{Kind: KindFifo, Depth: 1}}},
	}
	for _, tc := range cases {
		_, err := New(tc.root)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalidGraph) {
			t.Errorf("%s: error does not wrap ErrInvalidGraph: %v", tc.name, err)
		}
		var ge *GraphError
		if !errors.As(err, &ge) || ge.Path == "" {
			t.Errorf("%s: error is not a pathed *GraphError: %v", tc.name, err)
		}
	}

	deep := Fifo(1)
	for i := 0; i < MaxDepth+2; i++ {
		deep = Pipe(deep)
	}
	if _, err := New(deep); !errors.Is(err, ErrInvalidGraph) {
		t.Errorf("over-deep graph accepted: %v", err)
	}
}

func TestJSONFixpoint(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := Random(sim.NewRand(seed), RandOptions{MaxNodes: 24, MaxDepth: 4})
		b := g.JSON()
		back, err := FromJSON(b)
		if err != nil {
			t.Fatalf("seed %d: canonical JSON rejected: %v", seed, err)
		}
		if !bytes.Equal(back.JSON(), b) {
			t.Fatalf("seed %d: JSON not a fixpoint:\n%s\n%s", seed, b, back.JSON())
		}
	}
}

func TestRandomCoversTopologies(t *testing.T) {
	agg := Stats{}
	for seed := int64(0); seed < 200; seed++ {
		st := Random(sim.NewRand(seed), RandOptions{MaxNodes: 24, MaxDepth: 4}).Stats()
		agg.Forks += st.Forks
		agg.Deals += st.Deals
		agg.Loops += st.Loops
		agg.ClockDivs += st.ClockDivs
		agg.VarLat += st.VarLat
	}
	if agg.Forks == 0 || agg.Deals == 0 || agg.Loops == 0 || agg.ClockDivs == 0 || agg.VarLat == 0 {
		t.Fatalf("200 random graphs missed a topology class: %+v", agg)
	}
}

func TestMutateStaysValid(t *testing.T) {
	opt := RandOptions{MaxNodes: 24, MaxDepth: 4}
	rng := sim.NewRand(99)
	g := Random(rng, opt)
	for i := 0; i < 300; i++ {
		g = Mutate(rng, g, opt)
		if err := g.Validate(); err != nil {
			t.Fatalf("mutation %d produced an invalid graph: %v\n%s", i, err, g.JSON())
		}
	}
}

func TestReductionsStrictlyShrink(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := Random(sim.NewRand(seed), RandOptions{MaxNodes: 20, MaxDepth: 4})
		base := g.Stats()
		for _, r := range Reductions(g) {
			if err := r.Validate(); err != nil {
				t.Fatalf("seed %d: invalid reduction: %v", seed, err)
			}
			st := r.Stats()
			if st.Nodes > base.Nodes || (st.Nodes == base.Nodes && st.Weight >= base.Weight) {
				t.Fatalf("seed %d: reduction did not shrink: %+v → %+v", seed, base, st)
			}
		}
	}
}

// TestCompiledGoldenMatrix is the design compiler's conformance property:
// for 200+ seeded random graphs, the compiled module network must
// reproduce the golden model's stream exactly, and the legacy kernel and
// the scheduler must agree on the stream and the cycle count. `make
// race-golden` repeats it under the race detector.
func TestCompiledGoldenMatrix(t *testing.T) {
	graphs := int64(210)
	tokens := 24
	if testing.Short() {
		graphs, tokens = 60, 16
	}
	opt := RandOptions{MaxNodes: 18, MaxDepth: 4}
	for seed := int64(0); seed < graphs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("g%d", seed), func(t *testing.T) {
			t.Parallel()
			g := Random(sim.NewRand(seed), opt)
			in := testInput(seed^0x5eed, tokens)
			want := g.Golden(in)

			ref, refCycles := runCompiled(t, g, in, seed, true, false, CompileOptions{})
			if !streamEq(ref, want) {
				t.Fatalf("legacy kernel diverged from golden model:\ngraph: %s\n got %v\nwant %v",
					g.JSON(), ref, want)
			}
			// The scheduler leg doubles as the dynamic sensitivity audit of
			// the compiled modules.
			got, cycles := runCompiled(t, g, in, seed, false, true, CompileOptions{})
			if !streamEq(got, want) {
				t.Fatalf("scheduler diverged from golden model:\ngraph: %s\n got %v\nwant %v",
					g.JSON(), got, want)
			}
			if cycles != refCycles {
				t.Fatalf("scheduler cycle count %d, legacy %d\ngraph: %s",
					cycles, refCycles, g.JSON())
			}
		})
	}
}

// TestPlantedBugsDiverge pins the two compile-time bug knobs: each must
// make a minimal witnessing graph diverge from the golden model, and each
// must be invisible on graphs lacking its trigger structure.
func TestPlantedBugsDiverge(t *testing.T) {
	in := testInput(7, 12)

	t.Run("loop-init", func(t *testing.T) {
		g, err := New(Loop("xor", []uint32{1, 2}, Fifo(1)))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runCompiled(t, g, in, 3, false, false, CompileOptions{BugLoopInit: true})
		if streamEq(got, g.Golden(in)) {
			t.Fatal("reversed loop init not observable")
		}
		// A single-token loop cannot expose an ordering bug.
		g1, err := New(Loop("xor", []uint32{5}, Fifo(1)))
		if err != nil {
			t.Fatal(err)
		}
		got, _ = runCompiled(t, g1, in, 3, false, false, CompileOptions{BugLoopInit: true})
		if !streamEq(got, g1.Golden(in)) {
			t.Fatal("single-token loop should mask the bug")
		}
	})

	t.Run("join-order", func(t *testing.T) {
		g, err := New(Fork("sub", Compute("not", 1, 0), Fifo(1)))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runCompiled(t, g, in, 3, false, false, CompileOptions{BugJoinOrder: true})
		if streamEq(got, g.Golden(in)) {
			t.Fatal("reversed join fold not observable")
		}
		// A commutative fold over identical branches masks it.
		g1, err := New(Fork("add", Fifo(1), Fifo(2)))
		if err != nil {
			t.Fatal(err)
		}
		got, _ = runCompiled(t, g1, in, 3, false, false, CompileOptions{BugJoinOrder: true})
		if !streamEq(got, g1.Golden(in)) {
			t.Fatal("commutative join should mask the bug")
		}
	})
}

// TestOccupancyHist sanity-checks the coverage feature source: a run
// through a fifo must register a non-zero high-water bucket.
func TestOccupancyHist(t *testing.T) {
	s := sim.New()
	inCh := s.NewChannel("t.in", tokBytes)
	outCh := s.NewChannel("t.out", tokBytes)
	send := sim.NewSender("t-send", inCh)
	recv := sim.NewReceiver("t-recv", outCh)
	s.Register(send, recv)
	g, err := New(Fifo(4))
	if err != nil {
		t.Fatal(err)
	}
	inst := g.Compile(s, inCh, outCh, CompileOptions{})
	in := testInput(1, 8)
	for _, x := range in {
		send.Push(encTok(x))
	}
	if _, err := s.Run(100_000, func() bool { return len(recv.Received) >= len(in) }); err != nil {
		t.Fatal(err)
	}
	hist := inst.OccupancyHist()
	if hist[0]+hist[1]+hist[2]+hist[3] != 1 {
		t.Fatalf("expected exactly one fifo in the histogram: %v", hist)
	}
}
