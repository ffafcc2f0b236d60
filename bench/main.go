// Command bench is the repository's benchmark. It measures the full
// record → replay → verify loop and vidi-serve traffic end to end and, in a
// traced run, layer by layer, and checks every output it measures. See
// README.md for the workloads, the metrics and how to read them.
//
//	bash bench/run.sh [-workload name|all] [-seed n] [-seconds s] [-reps n] [-trace 0|1|dir] [-out results.json]
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is when this process started; a repetition's set-up time is
// measured from it.
var processStart = time.Now()

const (
	workDir         = ".bench_build/work"
	defaultTraceDir = ".bench_build/trace"
	specPath        = "BENCHMARK.json"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's settings.
type options struct {
	workloads []workload
	seed      int64
	seconds   float64 // measured seconds per workload, across its repetitions
	reps      int
	traced    bool
	traceDir  string
	workDir   string
	// inProcess runs repetitions in this process instead of child
	// processes (tests).
	inProcess bool
	// plant carries the gate tests' planted failures into every repetition.
	plant repConfig
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed; every input is drawn from it before timing starts")
	seconds := fs.Float64("seconds", 24, "measured seconds per workload, split evenly across its repetitions")
	reps := fs.Int("reps", 3, "repetitions per workload, each in a fresh child process")
	traceArg := fs.String("trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics, spans written under "+defaultTraceDir+"; any other value: traced run writing its spans to that directory")
	out := fs.String("out", "", "append this run's results to a JSON file, for -compare")
	compare := fs.Bool("compare", false, "compare two results files, A.json B.json, with the bounds in "+specPath)
	child := fs.Int("child", -1, "internal: run repetition N in this process and print its result as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results files")
			return 2
		}
		if err := compareFiles(stdout, specPath, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	o := options{seed: *seed, seconds: *seconds, reps: *reps, workDir: workDir}
	switch *traceArg {
	case "0":
	case "1":
		o.traced, o.traceDir = true, defaultTraceDir
	default:
		o.traced, o.traceDir = true, *traceArg
	}
	if *only == "all" {
		o.workloads = workloads
	} else if w, ok := findWorkload(*only); ok {
		o.workloads = []workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *only, strings.Join(names, ", "))
		return 2
	}
	if o.seconds <= 0 || o.reps < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -reps must be positive")
		return 2
	}

	if *child >= 0 {
		rc := o.repConfig(o.workloads[0], *child, time.Duration(o.seconds*float64(time.Second)))
		rc.start = processStart
		res, err := rc.run(ctx, rc)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(res)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	return execute(ctx, o, *out, stdout, stderr)
}

// execute measures every workload of o and prints the results; nothing
// reaches stdout unless every workload passed its gates.
func execute(ctx context.Context, o options, out string, stdout, stderr io.Writer) int {
	reports, err := measureAll(ctx, o, stderr)
	var text bytes.Buffer
	if err == nil {
		err = writeReports(&text, reports)
	}
	if err == nil && out != "" {
		err = appendResults(out, reports)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if _, err := stdout.Write(text.Bytes()); err != nil {
		return 1
	}
	return 0
}

func (o options) repConfig(w workload, rep int, measure time.Duration) repConfig {
	rc := o.plant
	rc.workload, rc.seed, rc.rep, rc.measure = w, o.seed, rep, measure
	rc.traced, rc.traceDir, rc.workDir = o.traced, o.traceDir, o.workDir
	return rc
}

// report is one workload's result, as printed and as kept in a results
// file.
type report struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Reps      int     `json:"reps"`
	Traced    bool    `json:"traced"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Metrics are the reported values: end-to-end and hostTime for an
	// untraced run, per-layer for a traced one.
	Metrics map[string]float64 `json:"metrics"`
	// PerRep holds each repetition's end-to-end and hostTime metrics and
	// host probe (untraced runs), the runs -compare takes quartiles over.
	PerRep []map[string]float64 `json:"per_rep,omitempty"`

	defs []metricDef
	vals map[string]value
}

func measureAll(ctx context.Context, o options, stderr io.Writer) ([]*report, error) {
	var reports []*report
	for _, w := range o.workloads {
		per := time.Duration(o.seconds / float64(o.reps) * float64(time.Second))
		var reps []*repResult
		for i := range o.reps {
			rc := o.repConfig(w, i, per)
			probe := hostProbe()
			var res *repResult
			var err error
			if o.inProcess {
				rc.start = time.Now()
				res, err = w.run(ctx, rc)
				if err == nil {
					var ru syscall.Rusage
					err = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
					res.Scalars["peak_rss_mb"] = float64(ru.Maxrss) / 1024
				}
			} else {
				res, err = runChild(ctx, rc, stderr)
			}
			if err != nil {
				return nil, fmt.Errorf("%s repetition %d: %w", w.name, i, err)
			}
			res.Scalars["bench.host_probe_ms"] = probe
			reps = append(reps, res)
		}
		r := &report{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Reps: o.reps, Traced: o.traced, Metrics: map[string]float64{}}
		var err error
		if o.traced {
			r.defs = perLayer
			r.vals, err = perLayerValues(reps)
		} else {
			r.defs = endToEnd
			r.vals, err = endToEndValues(reps)
			for _, rep := range reps {
				one, _ := endToEndValues([]*repResult{rep}) // a lone repetition always pools
				m := map[string]float64{"bench.host_probe_ms": rep.Scalars["bench.host_probe_ms"]}
				for k, v := range one {
					m[k] = v.v
				}
				r.PerRep = append(r.PerRep, m)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		for _, rep := range reps {
			r.Attempted += rep.Attempted
			r.Failed += rep.Failed
		}
		for k, v := range r.vals {
			r.Metrics[k] = v.v
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// runChild runs one repetition in a fresh process of this program, so
// every repetition starts cold and its peak RSS is its own.
func runChild(ctx context.Context, rc repConfig, stderr io.Writer) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// A repetition sets up in seconds; the slack keeps a hung one from
	// holding a default run past three minutes.
	ctx, cancel := context.WithTimeout(ctx, rc.measure+60*time.Second)
	defer cancel()
	traceArg := "0"
	if rc.traced {
		traceArg = rc.traceDir
	}
	cmd := exec.CommandContext(ctx, exe, "-child", strconv.Itoa(rc.rep), "-workload", rc.name,
		"-seed", strconv.FormatInt(rc.seed, 10), "-seconds", strconv.FormatFloat(rc.measure.Seconds(), 'g', -1, 64),
		"-trace", traceArg)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("reading the repetition's result: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("no resource usage for the repetition's process")
	}
	res.Scalars["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	return &res, nil
}

// writeReports prints every metric as "name{workload} value unit", then,
// as the last line, one JSON object with the run's verdict and metrics.
func writeReports(w io.Writer, reports []*report) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range reports {
		mode := "untraced: end-to-end metrics"
		if r.Traced {
			mode = "traced: per-layer metrics"
		}
		fmt.Fprintf(w, "# %s: seed %d, %d repetitions, %g s measured, %s\n", r.Workload, r.Seed, r.Reps, r.Seconds, mode)
		fmt.Fprintf(w, "failed_ratio{%s} %g ratio (%d of %d operations)\n", r.Workload, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
		printMetrics(w, r.Workload, r.defs, r.vals)
		if !r.Traced {
			fmt.Fprintln(w, "# host time, without a bound (see README.md):")
			printMetrics(w, r.Workload, hostTime, r.vals)
		}
		summary.Attempted += r.Attempted
		summary.Failed += r.Failed
		for _, d := range r.defs {
			key := d.name
			if len(reports) > 1 {
				key += "{" + r.Workload + "}"
			}
			summary.Metrics[key] = metric{r.vals[d.name].v, d.unit}
		}
	}
	line, err := json.Marshal(summary)
	if err != nil { // a NaN or infinite value
		return fmt.Errorf("the results do not encode: %w", err)
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// resultsFile is what -out appends to and -compare reads.
type resultsFile struct {
	Runs []*report `json:"runs"`
}

func appendResults(path string, reports []*report) error {
	var rf resultsFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, reports...)
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
