// vidi-bench regenerates the tables and figures of the paper's evaluation
// (§5–§6) on the simulation substrate and prints them with the paper's
// numbers alongside.
//
// Usage:
//
//	vidi-bench -table 1            # Table 1: overhead + trace sizes
//	vidi-bench -table 2            # Table 2: resource overhead per app
//	vidi-bench -fig 7              # Fig 7: resource scaling vs width
//	vidi-bench -table effectiveness  # §5.4 divergence experiment
//	vidi-bench -table bandwidth      # §6 back-of-the-envelope analysis
//	vidi-bench -table faults         # fault-injection resilience matrix
//	vidi-bench -table kernel         # simulation-kernel throughput (legacy vs scheduler)
//	vidi-bench -table kernel -baseline BENCH_kernel.json   # fail on >10% speedup regression
//	vidi-bench -table kernel -json BENCH_kernel.json   # + machine-readable artifact
//	vidi-bench -table kernel -metrics BENCH_metrics.json   # + merged telemetry snapshot
//	vidi-bench -all
//
// -v prints the simulation kernel's scheduler counters (eval calls, settle
// waves, skipped evals, skipped ticks) for every run it performs.
//
// With -table kernel, -metrics writes the merged telemetry snapshot of the
// instrumented runs (each app's series labelled app=<name>; inspect with
// vidi-top -metrics) and -trace-out runs one traced recording per app,
// writing per-app Perfetto timelines with the app name suffixed to the
// path. -pprof profiles the whole invocation.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"vidi/internal/cliutil"
	"vidi/internal/eval"
	"vidi/internal/telemetry"
)

// perAppPath inserts the app name before the path's extension:
// trace.json + sssp → trace-sssp.json.
func perAppPath(path, app string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + app + ext
}

func main() {
	table := flag.String("table", "", "table to regenerate: 1, 2, sizes, effectiveness, bandwidth, faults, kernel")
	fig := flag.String("fig", "", "figure to regenerate: 7")
	all := flag.Bool("all", false, "regenerate everything")
	scale := flag.Int("scale", 1, "workload scale factor")
	reps := flag.Int("reps", 3, "paired R1/R2 runs per app for overhead statistics (paper uses 10)")
	seed := flag.Int64("seed", 1000, "base seed")
	verbose := flag.Bool("v", false, "print per-run simulation-kernel scheduler counters")
	jsonOut := flag.String("json", "", "with -table kernel: also write the rows to this JSON file")
	baseline := flag.String("baseline", "", "with -table kernel: committed BENCH_kernel.json to gate against (fail if any app's speedup drops >10% below it)")
	tel := cliutil.AddTelemetryFlags()
	flag.Parse()

	ran := false
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "vidi-bench:", err)
		os.Exit(1)
	}
	if err := tel.Start(); err != nil {
		fail(err)
	}
	if *all || *table == "1" {
		ran = true
		fmt.Println("== Table 1: execution time, recording overhead, trace size ==")
		rows, err := eval.Table1(eval.DefaultTableApps(), *scale, *reps, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Print(eval.FormatTable1(rows))
		fmt.Println()
	}
	if *all || *table == "2" {
		ran = true
		fmt.Println("== Table 2: on-FPGA resource overhead (modelled vs paper) ==")
		fmt.Print(eval.FormatTable2(eval.Table2(eval.DefaultTableApps())))
		fmt.Println()
	}
	if *all || *fig == "7" {
		ran = true
		fmt.Println("== Fig 7: resource overhead vs monitored interface width ==")
		fmt.Print(eval.FormatFig7(eval.Fig7()))
		fmt.Println()
	}
	if *all || *table == "sizes" {
		ran = true
		fmt.Println("== Trace sizes by recording approach ==")
		rows, err := eval.TraceSizes(eval.DefaultTableApps(), *scale, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Print(eval.FormatTraceSizes(rows))
		fmt.Println()
	}
	if *all || *table == "effectiveness" {
		ran = true
		fmt.Println("== §5.4 effectiveness: divergences across record/replay ==")
		names := append(eval.DefaultTableApps(), "dma-irq")
		rows, err := eval.Effectiveness(names, *scale, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Print(eval.FormatEffectiveness(rows))
		fmt.Println()
	}
	if *all || *table == "faults" {
		ran = true
		fmt.Println("== Fault-injection resilience matrix ==")
		rows, err := eval.FaultMatrix(eval.DefaultFaultApps(), *scale, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Print(eval.FormatFaultMatrix(rows))
		fmt.Println()
	}
	if *all || *table == "kernel" {
		ran = true
		fmt.Println("== Simulation-kernel throughput: legacy fixpoint vs sensitivity scheduler ==")
		// The baseline loads before the run so -json may safely overwrite the
		// committed artifact with the fresh rows afterwards.
		var base map[string]eval.KernelBenchRow
		if *baseline != "" {
			var err error
			if base, err = eval.LoadKernelBenchJSON(*baseline); err != nil {
				fail(err)
			}
		}
		apps := append(eval.DefaultTableApps(), "dma-irq", "stress")
		rows, stats, snap, err := eval.KernelBench(apps, *scale, *reps, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Print(eval.FormatKernelBench(rows))
		fmt.Printf("geomean speedup: %.2fx\n", eval.GeomeanSpeedup(rows))
		if base != nil {
			if err := eval.CheckKernelBaseline(base, rows, 10); err != nil {
				fail(err)
			}
			fmt.Printf("baseline gate: ok (no app >10%% below %s)\n", *baseline)
		}
		if *verbose {
			for _, r := range rows {
				st := stats[r.App]
				fmt.Printf("  %-9s legacy    %v\n", r.App, st.Legacy)
				fmt.Printf("  %-9s scheduler %v\n", r.App, st.Sched)
			}
		}
		if *jsonOut != "" {
			if err := eval.WriteKernelBenchJSON(*jsonOut, *scale, *reps, *seed, rows); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		if tel.MetricsPath != "" {
			if err := cliutil.WriteMetricsFile(tel.MetricsPath, snap); err != nil {
				fail(err)
			}
			fmt.Printf("merged metrics written to %s (inspect with vidi-top -metrics)\n", tel.MetricsPath)
		}
		if tel.TracePath != "" {
			// The timed runs above stay untraced (span recording would taint
			// the sink-overhead column); tracing gets one dedicated recording
			// per app instead.
			for _, app := range apps {
				sink := telemetry.New(telemetry.WithTracing())
				if _, err := eval.Run(eval.RunConfig{App: app, Scale: *scale, Seed: *seed, Cfg: eval.R2, Telemetry: sink}); err != nil {
					fail(err)
				}
				path := perAppPath(tel.TracePath, app)
				if err := cliutil.WriteTraceFile(path, sink); err != nil {
					fail(err)
				}
				fmt.Printf("timeline written to %s (open in ui.perfetto.dev)\n", path)
			}
		}
		fmt.Println()
	}
	if *all || *table == "bandwidth" {
		ran = true
		fmt.Println("== §6: physical-timestamp recording bandwidth analysis ==")
		fmt.Println(eval.Section6())
		fmt.Println()
	}
	if !ran && *verbose {
		// Bare -v: one recording per app, printing the scheduler counters.
		ran = true
		fmt.Println("== Simulation-kernel scheduler counters (one R2 recording per app) ==")
		for _, app := range append(eval.DefaultTableApps(), "dma-irq", "stress") {
			res, err := eval.Run(eval.RunConfig{App: app, Scale: *scale, Seed: *seed, Cfg: eval.R2})
			if err != nil {
				fail(err)
			}
			fmt.Printf("%-9s %v\n", app, res.Stats)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if err := tel.StopPprof(os.Stdout); err != nil {
		fail(err)
	}
}
