package fuzz

import (
	"bytes"
	"reflect"
	"testing"

	"vidi/internal/design"
	"vidi/internal/sim"
)

// graphGenOpt forces every generated scenario to carry a compiled graph.
func graphGenOpt() GenOptions {
	opt := DefaultGenOptions()
	opt.GraphPct = 100
	return opt
}

// TestGraphScenarioKernelMatrix is the fuzz-level kernel-conformance
// property for compiled designs: for each generated graph-carrying scenario
// the legacy fixpoint kernel and the sensitivity-graph scheduler must
// produce byte-identical traces and VCD dumps. The scheduler leg runs with
// the dynamic sensitivity audit armed.
func TestGraphScenarioKernelMatrix(t *testing.T) {
	n := int64(12)
	if testing.Short() {
		n = 4
	}
	for seed := int64(0); seed < n; seed++ {
		sc := mustGen(t, seed, graphGenOpt())
		ref := runScenario(sc, runOpts{legacy: true, record: true, vcd: true, watchdog: recordWatchdog})
		if ref.err != nil {
			t.Fatalf("seed %d: legacy record: %v", seed, ref.err)
		}
		res := runScenario(sc, runOpts{record: true, vcd: true, watchdog: recordWatchdog})
		if res.err != nil {
			t.Fatalf("seed %d: scheduler record: %v", seed, res.err)
		}
		if !bytes.Equal(ref.tr.Bytes(), res.tr.Bytes()) {
			t.Errorf("seed %d: trace bytes differ from legacy kernel", seed)
		}
		if !bytes.Equal(ref.vcd, res.vcd) {
			t.Errorf("seed %d: VCD bytes differ from legacy kernel", seed)
		}
	}
}

// TestGuidedSearchSmoke is the in-tree slice of the CI fuzz-guided-smoke
// job: a small guided run must stay clean, discover at least one novel
// coverage vector beyond its first run, and be fully deterministic.
func TestGuidedSearchSmoke(t *testing.T) {
	runs := 16
	if testing.Short() {
		runs = 8
	}
	cfg := GuidedConfig{Runs: runs, SeedBase: 1, Gen: DefaultGenOptions()}
	rep, err := RunGuided(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failing > 0 {
		t.Fatalf("guided run failing on a clean tree:\n%v", rep.Failures)
	}
	if rep.NewVectors < 2 {
		t.Fatalf("guided run found %d novel vectors, want ≥ 2 (frontier never grew)", rep.NewVectors)
	}
	if rep.Frontier.Len() != rep.NewVectors {
		t.Fatalf("frontier size %d != novel vector count %d", rep.Frontier.Len(), rep.NewVectors)
	}
	again, err := RunGuided(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Vectors, again.Vectors) || rep.NewVectors != again.NewVectors {
		t.Fatal("guided search is not deterministic for a fixed config")
	}
}

// TestMutateScenarioStaysValidAndClean pins the mutation operator: always
// valid, never introduces a bug knob (guided search runs in clean mode).
func TestMutateScenarioStaysValidAndClean(t *testing.T) {
	rng := sim.NewRand(9)
	sc := mustGen(t, 2, graphGenOpt())
	for i := 0; i < 300; i++ {
		sc = MutateScenario(rng, sc, DefaultGenOptions())
		if err := sc.Validate(); err != nil {
			t.Fatalf("mutation %d produced an invalid scenario: %v", i, err)
		}
		if sc.FIFOBuggy || sc.Filter == "buggy" || sc.BugLoopInit || sc.BugJoinOrder {
			t.Fatalf("mutation %d introduced a bug knob: %+v", i, sc)
		}
	}
}

// plantedScenario builds an oversized graph-carrying scenario around root
// with one compiler bug armed, for the shrinker regressions below: the
// shrinker must strip the scaffolding yet keep the planted bug reproducing.
func plantedScenario(root design.Node, loopBug, joinBug bool) *Scenario {
	g, err := design.New(design.Pipe(
		design.Fifo(4),
		root,
		design.Fifo(6),
		design.Compute("addc", 2, 0),
	))
	if err != nil {
		panic(err)
	}
	return &Scenario{
		Seed:         21,
		Frames:       4,
		FIFOFrags:    64,
		Stages:       []int{3, 5},
		Graph:        g,
		BugLoopInit:  loopBug,
		BugJoinOrder: joinBug,
		DrainRate:    2,
		StartDelay:   120,
		JitterMax:    3,
		MutateProbe:  true,
	}
}

// TestShrinkIsolatesLoopInitBug: shrinking a golden divergence caused by
// the planted feedback-loop init-order bug must keep a loop in the graph and
// the bug armed, while cutting the scenario to a fraction of its size.
func TestShrinkIsolatesLoopInitBug(t *testing.T) {
	sc := plantedScenario(design.Loop("xor", []uint32{5, 9}, design.Compute("addc", 1, 0)), true, false)
	out := RunSeed(sc)
	if out.Failure == nil || out.Failure.Kind != FailGolden {
		t.Fatalf("planted loop-init bug did not produce %s: %v", FailGolden, out.Failure)
	}
	shrunk, runs := Shrink(sc, FailGolden, nil)
	if 2*shrunk.Size() > sc.Size() {
		t.Errorf("shrunk size %d not ≤ half of %d (after %d runs)", shrunk.Size(), sc.Size(), runs)
	}
	if !shrunk.BugLoopInit || shrunk.Graph == nil || shrunk.Graph.Stats().Loops == 0 {
		t.Fatalf("shrink lost the planted loop bug: %+v", shrunk)
	}
	if out := RunSeed(shrunk); out.Failure == nil || out.Failure.Kind != FailGolden {
		t.Fatalf("shrunk reproducer no longer diverges: %v", out.Failure)
	}
}

// TestShrinkIsolatesJoinOrderBug: same property for the planted fork
// join-ordering bug — a fork over asymmetric branches folded with a
// non-commutative op must survive shrinking.
func TestShrinkIsolatesJoinOrderBug(t *testing.T) {
	sc := plantedScenario(design.Fork("sub",
		design.Compute("not", 1, 0),
		design.Fifo(2),
	), false, true)
	out := RunSeed(sc)
	if out.Failure == nil || out.Failure.Kind != FailGolden {
		t.Fatalf("planted join-order bug did not produce %s: %v", FailGolden, out.Failure)
	}
	shrunk, runs := Shrink(sc, FailGolden, nil)
	if 2*shrunk.Size() > sc.Size() {
		t.Errorf("shrunk size %d not ≤ half of %d (after %d runs)", shrunk.Size(), sc.Size(), runs)
	}
	if !shrunk.BugJoinOrder || shrunk.Graph == nil || shrunk.Graph.Stats().Forks == 0 {
		t.Fatalf("shrink lost the planted join bug: %+v", shrunk)
	}
	if out := RunSeed(shrunk); out.Failure == nil || out.Failure.Kind != FailGolden {
		t.Fatalf("shrunk reproducer no longer diverges: %v", out.Failure)
	}
}
