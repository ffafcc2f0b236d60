package eval

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"vidi/internal/sim"
	"vidi/internal/telemetry"
)

// KernelBenchRow compares one application's R2 recording throughput under
// the legacy re-evaluate-everything fixpoint kernel and the sensitivity-
// graph scheduler, together with the scheduler counters explaining the
// difference.
type KernelBenchRow struct {
	App       string  `json:"app"`
	Cycles    uint64  `json:"cycles"`
	LegacySec float64 `json:"legacy_sec"`
	SchedSec  float64 `json:"sched_sec"`
	LegacyCPS float64 `json:"legacy_cycles_per_sec"`
	SchedCPS  float64 `json:"sched_cycles_per_sec"`
	Speedup   float64 `json:"speedup"`

	// The scheduler run repeated with an armed metrics sink, and the
	// relative throughput cost of instrumentation ((sched-sink)/sched; the
	// acceptance budget is 2%).
	SinkSec      float64 `json:"sink_sec"`
	SinkCPS      float64 `json:"sink_cycles_per_sec"`
	SinkDeltaPct float64 `json:"sink_delta_pct"`

	LegacyEvals   uint64 `json:"legacy_eval_calls"`
	SchedEvals    uint64 `json:"sched_eval_calls"`
	SkippedEvals  uint64 `json:"sched_skipped_evals"`
	SkippedTicks  uint64 `json:"sched_skipped_ticks"`
	BatchedCycles uint64 `json:"sched_batched_cycles"`
}

// KernelStats holds the raw scheduler counters of the two runs behind a
// row, for `vidi-bench -table kernel -v`.
type KernelStats struct {
	Legacy sim.Stats
	Sched  sim.Stats
}

// KernelBench measures each application's R2 recording wall-clock under
// both kernels and reports cycles/second and the speedup, plus a third
// scheduler run with an armed metrics sink that prices the instrumentation
// overhead. reps repeats each timed run and keeps the fastest (classic
// best-of-N to shed scheduler/GC noise); the kernels must agree on the
// cycle count or the row errors out — throughput comparisons between
// diverging executions would be meaningless.
//
// The returned snapshot merges every instrumented run's metrics, each
// app's series carrying an app=<name> const label — the artifact vidi-top
// and the CI bench job consume.
//
//lint:detaudit wall-clock measurement is the benchmark's deliverable; every timed run's cycle count and trace are separately checked for determinism
func KernelBench(appNames []string, scale, reps int, seed int64) ([]KernelBenchRow, map[string]KernelStats, *telemetry.Snapshot, error) {
	if reps < 1 {
		reps = 1
	}
	timed := func(app string, legacy bool) (time.Duration, *RunResult, error) {
		best := time.Duration(0)
		var res *RunResult
		for r := 0; r < reps; r++ {
			start := time.Now()
			out, err := Run(RunConfig{App: app, Scale: scale, Seed: seed, Cfg: R2, LegacyKernel: legacy})
			el := time.Since(start)
			if err != nil {
				return 0, nil, err
			}
			if out.CheckErr != nil {
				return 0, nil, fmt.Errorf("%s golden check: %w", app, out.CheckErr)
			}
			if res == nil || el < best {
				best, res = el, out
			}
		}
		return best, res, nil
	}
	rows := make([]KernelBenchRow, 0, len(appNames))
	stats := make(map[string]KernelStats, len(appNames))
	var snaps []*telemetry.Snapshot
	for _, app := range appNames {
		legDur, leg, err := timed(app, true)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("kernel bench %s legacy: %w", app, err)
		}
		schDur, sch, err := timed(app, false)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("kernel bench %s scheduler: %w", app, err)
		}
		if sch.Cycles != leg.Cycles {
			return nil, nil, nil, fmt.Errorf("kernel bench %s: kernels diverge (legacy %d cycles, scheduler %d)",
				app, leg.Cycles, sch.Cycles)
		}
		// The instrumented run arms a fresh metrics sink per repetition so
		// each gathers one run's worth of counts; the last rep's snapshot is
		// kept (the run is deterministic, so they are all identical).
		var sink *telemetry.Sink
		sinkDur := time.Duration(0)
		var snk *RunResult
		for r := 0; r < reps; r++ {
			s := telemetry.New(telemetry.WithConstLabels(telemetry.L("app", app)))
			start := time.Now()
			out, err := Run(RunConfig{App: app, Scale: scale, Seed: seed, Cfg: R2, Telemetry: s})
			el := time.Since(start)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("kernel bench %s instrumented: %w", app, err)
			}
			if out.CheckErr != nil {
				return nil, nil, nil, fmt.Errorf("kernel bench %s instrumented: golden check: %w", app, out.CheckErr)
			}
			if snk == nil || el < sinkDur {
				sinkDur, snk, sink = el, out, s
			}
		}
		if sch.Cycles != snk.Cycles {
			return nil, nil, nil, fmt.Errorf("kernel bench %s: kernels diverge (scheduler %d cycles, instrumented %d)",
				app, sch.Cycles, snk.Cycles)
		}
		snaps = append(snaps, sink.Gather())
		row := KernelBenchRow{
			App:       app,
			Cycles:    leg.Cycles,
			LegacySec: legDur.Seconds(),
			SchedSec:  schDur.Seconds(),
			SinkSec:   sinkDur.Seconds(),
			LegacyCPS: float64(leg.Cycles) / legDur.Seconds(),
			SchedCPS:  float64(sch.Cycles) / schDur.Seconds(),
			SinkCPS:   float64(snk.Cycles) / sinkDur.Seconds(),

			LegacyEvals:   leg.Stats.EvalCalls,
			SchedEvals:    sch.Stats.EvalCalls,
			SkippedEvals:  sch.Stats.SkippedEvals,
			SkippedTicks:  sch.Stats.SkippedTicks,
			BatchedCycles: sch.Stats.BatchedCycles,
		}
		row.Speedup = row.SchedCPS / row.LegacyCPS
		row.SinkDeltaPct = 100 * (row.SchedCPS - row.SinkCPS) / row.SchedCPS
		rows = append(rows, row)
		stats[app] = KernelStats{Legacy: leg.Stats, Sched: sch.Stats}
	}
	merged, err := telemetry.MergeSnapshots(snaps...)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("kernel bench: merging snapshots: %w", err)
	}
	return rows, stats, merged, nil
}

// FormatKernelBench renders the kernel throughput table.
func FormatKernelBench(rows []KernelBenchRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %10s %14s %14s %8s %8s %12s %10s\n",
		"App", "cycles", "legacy cyc/s", "sched cyc/s", "speedup", "sink Δ%", "legacy evals", "batched")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %10d %14.0f %14.0f %7.2fx %7.2f%% %12d %10d\n",
			r.App, r.Cycles, r.LegacyCPS, r.SchedCPS, r.Speedup, r.SinkDeltaPct,
			r.LegacyEvals, r.BatchedCycles)
	}
	return b.String()
}

// GeomeanSpeedup is the geometric-mean scheduler speedup over the rows, the
// headline number of the kernel table.
func GeomeanSpeedup(rows []KernelBenchRow) float64 {
	if len(rows) == 0 {
		return 0
	}
	logsum := 0.0
	for _, r := range rows {
		logsum += math.Log(r.Speedup)
	}
	return math.Exp(logsum / float64(len(rows)))
}

// kernelBenchFile is the BENCH_kernel.json layout.
type kernelBenchFile struct {
	Scale int              `json:"scale"`
	Reps  int              `json:"reps"`
	Seed  int64            `json:"seed"`
	Rows  []KernelBenchRow `json:"rows"`
}

// WriteKernelBenchJSON writes the rows (with their run parameters) as the
// BENCH_kernel.json artifact consumed by CI's bench smoke job.
func WriteKernelBenchJSON(path string, scale, reps int, seed int64, rows []KernelBenchRow) error {
	buf, err := json.MarshalIndent(kernelBenchFile{Scale: scale, Reps: reps, Seed: seed, Rows: rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// LoadKernelBenchJSON reads a committed BENCH_kernel.json and returns its
// rows keyed by app name, for the bench regression gate.
func LoadKernelBenchJSON(path string) (map[string]KernelBenchRow, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f kernelBenchFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]KernelBenchRow, len(f.Rows))
	for _, r := range f.Rows {
		out[r.App] = r
	}
	return out, nil
}

// CheckKernelBaseline is CI's bench regression gate: it compares fresh rows
// against the committed baseline and errors if any app's scheduler speedup
// dropped more than tolPct percent below its previous value. Apps absent
// from the baseline pass (new rows are allowed in); apps absent from the
// fresh run are ignored (the gate guards regressions, not coverage — the
// golden tests own coverage).
func CheckKernelBaseline(baseline map[string]KernelBenchRow, rows []KernelBenchRow, tolPct float64) error {
	var regressions []string
	for _, r := range rows {
		base, ok := baseline[r.App]
		if !ok || base.Speedup <= 0 {
			continue
		}
		floor := base.Speedup * (1 - tolPct/100)
		if r.Speedup < floor {
			regressions = append(regressions,
				fmt.Sprintf("%s: speedup %.2fx < %.2fx (baseline %.2fx - %.0f%%)",
					r.App, r.Speedup, floor, base.Speedup, tolPct))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("kernel bench regression vs committed baseline:\n  %s",
			strings.Join(regressions, "\n  "))
	}
	return nil
}
