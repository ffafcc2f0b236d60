package fuzz

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"

	"vidi/internal/design"
	"vidi/internal/sim"
	"vidi/internal/telemetry"
)

// CoverageVector quantizes one clean run's observable behavior into a small
// discrete feature vector: scheduler activity counters from the record
// leg's telemetry snapshot (log2- and decile-bucketed so noise
// does not manufacture novelty), the compiled graph's FIFO occupancy
// quartiles, and the scenario's topology-class counts. Two runs with equal
// vectors exercised the simulator the same way; the guided search keeps one
// scenario per distinct vector as its frontier.
type CoverageVector struct {
	// CycleBucket/WaveBucket/EvalBucket are log2 buckets of the record run's
	// cycle count, settle waves and Eval invocations.
	CycleBucket int `json:"cycle_bucket"`
	WaveBucket  int `json:"wave_bucket"`
	EvalBucket  int `json:"eval_bucket"`
	// SkipDecile is the scheduler's eval-skip ratio in deciles (skipped
	// relative to legacy's skipped+ran); BatchDecile likewise for cycles
	// skipped wholesale by quiescence batching.
	SkipDecile  int `json:"skip_decile"`
	BatchDecile int `json:"batch_decile"`
	// Occupancy histograms the compiled graph's FIFO high-water marks by
	// capacity quartile, each count saturating at 3.
	Occupancy [4]int `json:"occupancy"`
	// Topology-class counts of the scenario's graph, each saturating at 3.
	Loops     int `json:"loops"`
	Forks     int `json:"forks"`
	Deals     int `json:"deals"`
	ClockDivs int `json:"clock_divs"`
	VarLat    int `json:"var_lat"`
	// GraphDepth is the graph's nesting depth (0 = graph-free).
	GraphDepth int `json:"graph_depth"`
	// Degraded/Faulted mark the recording mode and fault-plan presence.
	Degraded bool `json:"degraded,omitempty"`
	Faulted  bool `json:"faulted,omitempty"`
}

// Key is the frontier identity: two vectors with the same key are the same
// behavior class.
func (v CoverageVector) Key() string {
	b, err := json.Marshal(v)
	if err != nil { // fixed struct of ints/bools: cannot fail
		panic(fmt.Sprintf("fuzz: coverage vector marshal: %v", err))
	}
	return string(b)
}

// log2Bucket buckets a non-negative count by bit length: 0→0, 1→1, 2..3→2,
// 4..7→3, …
func log2Bucket(v float64) int {
	if v < 1 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// decile buckets part/whole into 0..10.
func decile(part, whole float64) int {
	if whole <= 0 {
		return 0
	}
	d := int(10 * part / whole)
	if d > 10 {
		d = 10
	}
	return d
}

// sat3 saturates a count at 3 so raw magnitudes do not explode the vector
// space.
func sat3(n int) int {
	if n > 3 {
		return 3
	}
	return n
}

// coverageOf derives the vector for one scheduler-kernel record leg.
func coverageOf(sc *Scenario, res *runResult, snap *telemetry.Snapshot) CoverageVector {
	evals := snap.Total("vidi_sched_evals_total")
	skipped := snap.Total("vidi_sched_skipped_evals_total")
	cycles := snap.Total("vidi_sched_cycles")
	v := CoverageVector{
		CycleBucket: log2Bucket(cycles),
		WaveBucket:  log2Bucket(snap.Total("vidi_sched_waves_total")),
		EvalBucket:  log2Bucket(evals),
		SkipDecile:  decile(skipped, evals+skipped),
		BatchDecile: decile(snap.Total("vidi_sched_batched_cycles_total"), cycles),
		Degraded:    sc.Degraded,
		Faulted:     len(sc.Faults) > 0,
	}
	if res.design != nil && res.design.inst != nil {
		h := res.design.inst.OccupancyHist()
		for i, n := range h {
			v.Occupancy[i] = sat3(n)
		}
	}
	if sc.Graph != nil {
		st := sc.Graph.Stats()
		v.Loops = sat3(st.Loops)
		v.Forks = sat3(st.Forks)
		v.Deals = sat3(st.Deals)
		v.ClockDivs = sat3(st.ClockDivs)
		v.VarLat = sat3(st.VarLat)
		v.GraphDepth = st.Depth
	}
	return v
}

// RunSeedCoverage is RunSeed plus coverage extraction: it attaches a
// telemetry sink to the scheduler-kernel record leg and derives the run's
// CoverageVector. The vector is nil when the scenario failed validation
// (no run to measure).
func RunSeedCoverage(sc *Scenario) (*Outcome, *CoverageVector) {
	tel := telemetry.New()
	out, rec := runOracles(sc, tel)
	if rec == nil {
		return out, nil
	}
	v := coverageOf(sc, rec, tel.Gather())
	return out, &v
}

// FrontierEntry pairs a scenario with the novel vector it produced.
type FrontierEntry struct {
	Scenario *Scenario      `json:"scenario"`
	Vector   CoverageVector `json:"vector"`
}

// Frontier is the guided search's working set: one representative scenario
// per distinct coverage vector, in discovery order.
type Frontier struct {
	seen    map[string]int
	entries []*FrontierEntry
}

// NewFrontier returns an empty frontier.
func NewFrontier() *Frontier { return &Frontier{seen: map[string]int{}} }

// Add records sc under its vector and reports whether the vector was novel.
func (f *Frontier) Add(sc *Scenario, v CoverageVector) bool {
	key := v.Key()
	if _, ok := f.seen[key]; ok {
		return false
	}
	f.seen[key] = len(f.entries)
	f.entries = append(f.entries, &FrontierEntry{Scenario: sc, Vector: v})
	return true
}

// Len is the number of distinct vectors discovered.
func (f *Frontier) Len() int { return len(f.entries) }

// Entries returns the frontier in discovery order.
func (f *Frontier) Entries() []*FrontierEntry { return f.entries }

// Pick returns a uniformly random frontier scenario, or nil when empty.
func (f *Frontier) Pick(rng *rand.Rand) *Scenario {
	if len(f.entries) == 0 {
		return nil
	}
	return f.entries[rng.Intn(len(f.entries))].Scenario
}

// MutateScenario derives a new valid scenario from sc: one structural or
// workload mutation (graph mutation via design.Mutate, graph attach/detach,
// frame/stage/rate/timing tweaks), with the payload seed freely re-rolled.
// Bug knobs are never introduced — guided search runs in clean mode.
func MutateScenario(rng *rand.Rand, sc *Scenario, opt GenOptions) *Scenario {
	ropt := design.RandOptions{MaxNodes: opt.MaxGraphNodes, MaxDepth: opt.MaxGraphDepth}
	for attempt := 0; attempt < 8; attempt++ {
		c := sc.clone()
		switch rng.Intn(10) {
		case 0, 1, 2: // graph mutation dominates: it is the coverage driver
			if c.Graph != nil {
				c.Graph = design.Mutate(rng, c.Graph, ropt)
			} else {
				c.Graph = design.Random(rng, ropt)
			}
		case 3:
			c.Graph, c.BugLoopInit, c.BugJoinOrder = nil, false, false
		case 4:
			c.Frames = 2 + rng.Intn(opt.MaxFrames-1)
			if lim := c.Frames * 16; c.FIFOFrags > lim {
				c.FIFOFrags = lim
			}
		case 5:
			c.Stages = nil
			for i, n := 0, rng.Intn(opt.MaxStages+1); i < n; i++ {
				c.Stages = append(c.Stages, 1+rng.Intn(8))
			}
		case 6:
			c.DrainRate = 1 + rng.Intn(16)
		case 7:
			c.StartDelay = rng.Intn(600)
			c.JitterMax = rng.Intn(9)
		case 8:
			c.Degraded = !c.Degraded
			if c.Degraded && c.BufBytes == 0 {
				c.BufBytes = 2048
			}
			if !c.Degraded {
				// Brownout recording only survives degraded; drop the fault
				// with the mode.
				c.Faults, c.BufBytes = nil, 0
			}
		case 9:
			c.MutateProbe = !c.MutateProbe
		}
		c.Seed = rng.Int63()
		if c.Validate() == nil {
			return c
		}
	}
	return sc.clone()
}

// TopologyStats counts, across a guided run's scenarios, how many exercised
// each of the five graph topology classes (plus the graph-free baseline).
type TopologyStats struct {
	Scenarios int `json:"scenarios"`
	Graphless int `json:"graphless"`
	Loops     int `json:"loops"`
	Forks     int `json:"forks"`
	Deals     int `json:"deals"`
	ClockDivs int `json:"clock_divs"`
	VarLat    int `json:"var_lat"`
}

func (t *TopologyStats) observe(sc *Scenario) {
	t.Scenarios++
	if sc.Graph == nil {
		t.Graphless++
		return
	}
	st := sc.Graph.Stats()
	if st.Loops > 0 {
		t.Loops++
	}
	if st.Forks > 0 {
		t.Forks++
	}
	if st.Deals > 0 {
		t.Deals++
	}
	if st.ClockDivs > 0 {
		t.ClockDivs++
	}
	if st.VarLat > 0 {
		t.VarLat++
	}
}

// Missing names the topology classes a guided run never exercised.
func (t *TopologyStats) Missing() []string {
	var m []string
	for _, c := range []struct {
		name string
		n    int
	}{
		{"fork", t.Forks}, {"deal", t.Deals}, {"loop", t.Loops},
		{"clockdiv", t.ClockDivs}, {"varlat", t.VarLat},
	} {
		if c.n == 0 {
			m = append(m, c.name)
		}
	}
	return m
}

// GuidedConfig parameterizes RunGuided.
type GuidedConfig struct {
	// Runs is the total number of scenarios to execute.
	Runs int
	// SeedBase seeds both the fresh-scenario stream and the mutation source,
	// making the whole search deterministic.
	SeedBase int64
	// Gen bounds generation and mutation.
	Gen GenOptions
	// Progress, when non-nil, receives one line per run.
	Progress func(format string, args ...any)
}

// GuidedReport is a guided run's result: the frontier of distinct coverage
// vectors, its growth curve, and the topology classes exercised.
type GuidedReport struct {
	Runs       int              `json:"runs"`
	Fresh      int              `json:"fresh"`
	Mutated    int              `json:"mutated"`
	Failing    int              `json:"failing"`
	NewVectors int              `json:"new_vectors"`
	Growth     []int            `json:"growth"`
	Topology   TopologyStats    `json:"topology"`
	Failures   []string         `json:"failures,omitempty"`
	Frontier   *Frontier        `json:"-"`
	Vectors    []CoverageVector `json:"vectors"`
}

// RunGuided performs coverage-guided search: every fourth run executes a
// fresh generator seed, the rest mutate a random frontier scenario; a run
// whose coverage vector is novel joins the frontier. All runs go through the
// full five-oracle stack, so the search doubles as a conformance sweep —
// failures are reported, never added to the frontier.
func RunGuided(cfg GuidedConfig) (*GuidedReport, error) {
	if err := cfg.Gen.validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRand(cfg.SeedBase ^ 0x6e1d)
	fr := NewFrontier()
	rep := &GuidedReport{Frontier: fr}
	nextSeed := cfg.SeedBase
	for i := 0; i < cfg.Runs; i++ {
		var sc *Scenario
		var origin string
		if fr.Len() == 0 || i%4 == 0 {
			sc, _ = Generate(nextSeed, cfg.Gen) // cfg.Gen validated above
			origin = fmt.Sprintf("seed %d", nextSeed)
			nextSeed++
			rep.Fresh++
		} else {
			sc = MutateScenario(rng, fr.Pick(rng), cfg.Gen)
			origin = "mutation"
			rep.Mutated++
		}
		out, vec := RunSeedCoverage(sc)
		rep.Runs++
		rep.Topology.observe(sc)
		novel := false
		if out.Failure != nil {
			rep.Failing++
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", origin, out.Failure))
		} else if vec != nil && fr.Add(sc, *vec) {
			rep.NewVectors++
			novel = true
		}
		rep.Growth = append(rep.Growth, fr.Len())
		if cfg.Progress != nil {
			verdict := "ok"
			if out.Failure != nil {
				verdict = "FAIL " + string(out.Failure.Kind)
			} else if novel {
				verdict = "NEW"
			}
			cfg.Progress("run %-4d %-12s %-4s frontier %d", i, origin, verdict, fr.Len())
		}
	}
	for _, e := range fr.Entries() {
		rep.Vectors = append(rep.Vectors, e.Vector)
	}
	return rep, nil
}
