package eval

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"vidi/internal/sim"
	"vidi/internal/telemetry"
)

// KernelCounters are one configuration's exact simulation-kernel counters:
// the cycle count both kernels agree on, each kernel's Eval calls, and the
// scheduler's clock-edge-gated ticks and quiescence-batched cycles. They
// depend on the seed alone, never on the host.
type KernelCounters struct {
	Cycles        uint64 `json:"cycles"`
	LegacyEvals   uint64 `json:"legacy_eval_calls"`
	SchedEvals    uint64 `json:"sched_eval_calls"`
	SkippedTicks  uint64 `json:"sched_skipped_ticks"`
	BatchedCycles uint64 `json:"sched_batched_cycles"`
}

// KernelBenchRow holds one application's counters for its R2 recording and
// for the R3 replay of that recording.
type KernelBenchRow struct {
	App string         `json:"app"`
	R2  KernelCounters `json:"r2"`
	R3  KernelCounters `json:"r3"`
}

// KernelStats holds what stands behind a row besides its counters: the raw
// scheduler counters of its runs (legacy, then scheduler), for `vidi-bench
// -table kernel -v`, and the telemetry sink of the scheduler R2 run.
type KernelStats struct {
	R2, R3 [2]sim.Stats
	Sink   *telemetry.Sink
}

// KernelBench runs each application's R2 recording and then the R3 replay
// of that trace, each once under the legacy fixpoint kernel and once under
// the sensitivity scheduler, and tabulates the kernels' exact counters. A
// row errors out when the kernels disagree on a cycle count or the R2
// recording fails its golden check.
//
// The scheduler R2 run carries an armed metrics sink (span recording too,
// with tracing); the returned snapshot merges those sinks, each app's series
// carrying an app=<name> const label — the BENCH_metrics.json artifact.
func KernelBench(appNames []string, scale int, seed int64, tracing bool) ([]KernelBenchRow, map[string]KernelStats, *telemetry.Snapshot, error) {
	rows := make([]KernelBenchRow, 0, len(appNames))
	stats := make(map[string]KernelStats, len(appNames))
	var snaps []*telemetry.Snapshot
	for _, app := range appNames {
		opts := []telemetry.Option{telemetry.WithConstLabels(telemetry.L("app", app))}
		if tracing {
			opts = append(opts, telemetry.WithTracing())
		}
		sink := telemetry.New(opts...)
		rc := RunConfig{App: app, Scale: scale, Seed: seed, Cfg: R2}
		r2, r2Stats, rec, err := kernelPair(rc, sink)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("kernel bench %s R2: %w", app, err)
		}
		rc.Cfg, rc.ReplayTrace = R3, rec.Trace
		r3, r3Stats, _, err := kernelPair(rc, nil)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("kernel bench %s R3: %w", app, err)
		}
		rows = append(rows, KernelBenchRow{App: app, R2: r2, R3: r3})
		stats[app] = KernelStats{R2: r2Stats, R3: r3Stats, Sink: sink}
		snaps = append(snaps, sink.Gather())
	}
	merged, err := telemetry.MergeSnapshots(snaps...)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("kernel bench: merging snapshots: %w", err)
	}
	return rows, stats, merged, nil
}

// kernelPair runs rc under the legacy kernel and then under the scheduler
// with sink attached, and returns the counters of the two runs, their raw
// stats and the scheduler run's result.
func kernelPair(rc RunConfig, sink *telemetry.Sink) (KernelCounters, [2]sim.Stats, *RunResult, error) {
	var res [2]*RunResult
	for i, legacy := range []bool{true, false} {
		rc.LegacyKernel = legacy
		if !legacy {
			rc.Telemetry = sink
		}
		out, err := Run(rc)
		if err != nil {
			return KernelCounters{}, [2]sim.Stats{}, nil, err
		}
		if out.CheckErr != nil {
			return KernelCounters{}, [2]sim.Stats{}, nil, fmt.Errorf("golden check (legacy=%v): %w", legacy, out.CheckErr)
		}
		res[i] = out
	}
	leg, sch := res[0], res[1]
	if sch.Cycles != leg.Cycles {
		return KernelCounters{}, [2]sim.Stats{}, nil, fmt.Errorf("kernels diverge (legacy %d cycles, scheduler %d)",
			leg.Cycles, sch.Cycles)
	}
	return KernelCounters{
		Cycles:        sch.Cycles,
		LegacyEvals:   leg.Stats.EvalCalls,
		SchedEvals:    sch.Stats.EvalCalls,
		SkippedTicks:  sch.Stats.SkippedTicks,
		BatchedCycles: sch.Stats.BatchedCycles,
	}, [2]sim.Stats{leg.Stats, sch.Stats}, sch, nil
}

// FormatKernelBench renders the kernel counter table, one line per
// application and configuration.
func FormatKernelBench(rows []KernelBenchRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-3s %10s %13s %12s %14s %10s\n",
		"App", "cfg", "cycles", "legacy evals", "sched evals", "skipped ticks", "batched")
	for _, r := range rows {
		for i, c := range []KernelCounters{r.R2, r.R3} {
			fmt.Fprintf(&b, "%-9s %-3s %10d %13d %12d %14d %10d\n",
				r.App, []string{"R2", "R3"}[i], c.Cycles, c.LegacyEvals, c.SchedEvals,
				c.SkippedTicks, c.BatchedCycles)
		}
	}
	return b.String()
}

// kernelBenchFile is the BENCH_kernel.json layout.
type kernelBenchFile struct {
	Scale int              `json:"scale"`
	Seed  int64            `json:"seed"`
	Rows  []KernelBenchRow `json:"rows"`
}

// WriteKernelBenchJSON writes the rows, with their run parameters, as the
// committed BENCH_kernel.json artifact.
func WriteKernelBenchJSON(path string, scale int, seed int64, rows []KernelBenchRow) error {
	buf, err := json.MarshalIndent(kernelBenchFile{Scale: scale, Seed: seed, Rows: rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
