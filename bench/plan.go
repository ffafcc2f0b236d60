package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"vidi/internal/serve"
	"vidi/internal/sim"
	"vidi/internal/trace"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// app and scale select the simulated application: the loop's input,
	// or the recordings a serve workload uploads and replays.
	app   string
	scale int
	// rate is the open-loop arrival rate in operations per second (serve
	// workloads only), fixed at no more than 40% of the lowest closed-loop
	// capacity one repetition measured on a 2-vCPU host under co-tenant
	// load, so the open loop measures latency below saturation.
	rate float64
	run  func(context.Context, repConfig) (*repResult, error)
}

var workloads = []workload{
	{name: "loop-txn", app: "dma-irq", scale: 8, run: runLoop},
	{name: "loop-idle", app: "render3d", scale: 1, run: runLoop},
	{name: "serve-ingest", app: "dma-irq", scale: 1, rate: 5, run: runServe},
	{name: "serve-replay", app: "dma-irq", scale: 1, rate: 30, run: runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Serve workload shape.
const (
	poolSize      = 32 // distinct recordings the sessions upload or replay
	segmentFrames = 16 // storage frames per put_segment
	tenants       = 8
	closedOps     = 63 // operations in each closed-loop client's list, which it cycles through
	// directOps bounds how many of a traced repetition's generated
	// operations are replayed directly against the store and job code.
	directOps = 32
)

// table1Seeds are the simulation seeds of the paired R1/R2 runs behind
// record_overhead_pct and trace_bytes_per_txn. They are fixed, not drawn
// from -seed, so those exact metrics compare across commits and seeds.
var table1Seeds = []int64{1, 2, 3, 4}

// repConfig is one repetition's settings.
type repConfig struct {
	workload
	seed    int64
	rep     int
	start   time.Time     // set-up is timed from here
	measure time.Duration // measured phase
	traced  bool
	// traceDir, when set, receives the repetition's spans as Chrome
	// trace_event JSON.
	traceDir string
	// workDir holds the serve workloads' stores.
	workDir string

	// Planted failures, set only by the gate tests.
	mutateReplay   func(*trace.Trace) error
	mutateManifest func(*serve.Manifest)
	mutateJob      func(*serve.Job)
}

// arrival is one generated serve operation.
type arrival struct {
	at      time.Duration // offset from the start of the open-loop phase
	pool    int           // which recording it carries
	tenant  string
	compare bool // serve-replay: a compare job instead of a replay job
}

// plan is every input a repetition uses, drawn from the workload seed
// before timing starts.
type plan struct {
	simSeed   int64   // loop workloads: the simulation seed
	poolSeeds []int64 // serve workloads: one simulation seed per recording
	arrivals  []arrival
	closed    [][]arrival // each closed-loop client's operations
}

// makePlan draws a repetition's inputs. The same seed, workload and
// open-loop duration give the same plan. The seed decides which recording,
// tenant and arrival time each operation gets, never how much work a phase
// holds: the open loop has exactly rate × open arrivals at times drawn
// uniformly over the phase, which is how a Poisson process places a given
// number of arrivals, and exactly a third of every list are compare jobs.
func makePlan(seed int64, w workload, open time.Duration, clients int) plan {
	rng := sim.NewRand(seed)
	p := plan{simSeed: 1 + rng.Int63n(1<<31)}
	if w.rate == 0 {
		return p
	}
	for range poolSize {
		p.poolSeeds = append(p.poolSeeds, 1+rng.Int63n(1<<31))
	}
	draw := func(n int) []arrival {
		ops := make([]arrival, n)
		for i := range ops {
			ops[i] = arrival{pool: rng.Intn(poolSize), tenant: fmt.Sprintf("t%d", rng.Intn(tenants))}
		}
		for _, i := range rng.Perm(n)[:n/3] {
			ops[i].compare = true
		}
		return ops
	}
	p.arrivals = draw(int(math.Round(w.rate * open.Seconds())))
	for i := range p.arrivals {
		p.arrivals[i].at = time.Duration(rng.Int63n(int64(open)))
	}
	sort.Slice(p.arrivals, func(i, j int) bool { return p.arrivals[i].at < p.arrivals[j].at })
	for range clients {
		p.closed = append(p.closed, draw(closedOps))
	}
	return p
}
