package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"time"
)

// errGate marks a wrong output: a failed golden check, a divergent replay,
// a manifest that does not vouch for the uploaded bytes, an unclean job, or
// outputs that differ between loops or repetitions. It fails the run.
var errGate = errors.New("correctness gate")

// repResult is what one repetition measured. A child process prints it as
// JSON for the parent to pool.
type repResult struct {
	// Samples are per-operation values, pooled across repetitions: "op"
	// holds untraced operation latencies (ms), "op.traced" traced ones,
	// "bench.coverage" each traced operation's share covered by layer
	// spans, and every span name its spans' self times (ms).
	Samples map[string][]float64 `json:"samples"`
	// Scalars are per-repetition values; the report takes their median,
	// except for the saturated.* counts, which it sums, and peak RSS and
	// generator lag, of which it takes the largest.
	Scalars map[string]float64 `json:"scalars"`
	// Exact values, and the Fingerprint of every deterministic output,
	// must be identical in every repetition.
	Exact       map[string]float64 `json:"exact"`
	Fingerprint string             `json:"fingerprint"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
}

func newRepResult() *repResult {
	return &repResult{Samples: map[string][]float64{}, Scalars: map[string]float64{}, Exact: map[string]float64{}}
}

// saturated records a repetition's saturated phase — back-to-back untraced
// loops, or the closed loop — as the ops it completed, the simulated cycles
// they carry, and the time they took. Rates pool these over the
// repetitions, so each rate covers every saturated second of the run
// rather than being the median of three short phases.
func (r *repResult) saturated(ops int, cycles uint64, d time.Duration) {
	r.Scalars["saturated.ops"] = float64(ops)
	r.Scalars["saturated.cycles"] = float64(cycles)
	r.Scalars["saturated.s"] = d.Seconds()
}

// finish adds what a traced repetition reports after its measured phase:
// the spans' self times and coverage, and the span file.
func finish(rc repConfig, res *repResult, tr *tracer, epoch time.Time) error {
	if tr == nil {
		return nil
	}
	self := selfTimes(tr.spans)
	for _, s := range tr.spans {
		res.Samples[s.Name] = append(res.Samples[s.Name], self[s.ID])
		if s.Name == "bench.op" {
			res.Samples["bench.coverage"] = append(res.Samples["bench.coverage"], 1-self[s.ID]/ms(s.End.Sub(s.Start)))
		}
	}
	if rc.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(rc.traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(rc.traceDir, fmt.Sprintf("%s-seed%d-rep%d.json", rc.name, rc.seed, rc.rep)))
	if err != nil {
		return err
	}
	if err := writeChrome(f, tr.spans, epoch, rc.rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSample reads the Go runtime's allocation and GC CPU counters.
type runtimeSample struct{ allocs, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// since records allocation per operation and the GC's share of CPU
// between an earlier sample and r.
func (r runtimeSample) since(before runtimeSample, ops int, res *repResult) {
	res.Scalars["runtime.alloc_mb_per_op"] = (r.allocs - before.allocs) / 1e6 / float64(max(ops, 1))
	if d := r.totalCPU - before.totalCPU; d > 0 {
		res.Scalars["runtime.gc_cpu_pct"] = 100 * (r.gcCPU - before.gcCPU) / d
	}
}

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names with their direction and bound.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off, that repeat between runs within their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"record_overhead_pct", "%"},
	{"trace_bytes_per_txn", "B/txn"},
	{"peak_rss_mb", "MB"},
}

// hostTime are the user-visible speeds: op latency and saturated rates. An
// "op" is one loop, one record session, or one job. Between runs of
// unchanged code they move by more than a tenth with the host's load, so
// they have no bound and are reported with the per-layer metrics; untraced
// runs still measure them for -compare.
var hostTime = []metricDef{
	{"op_ms_p50", "ms"},
	{"capacity_per_s", "1/s"},
	{"sim_cycles_per_s", "cycles/s"},
}

// perLayer are the layers' metrics, from a traced run. A layer the
// workload never reaches reads 0 and is marked n/a.
var perLayer = append(append([]metricDef(nil), hostTime...), []metricDef{
	{"op_ms_tail", "ms"},
	{"sim.record_evals_per_cycle", "evals/cycle"},
	{"sim.replay_evals_per_cycle", "evals/cycle"},
	{"sim.record_batched_ratio", "ratio"},
	{"sim.replay_batched_ratio", "ratio"},
	{"sim.native_ms_p50", "ms"},
	{"core.record_ms_p50", "ms"},
	{"core.record_self_ms_p50", "ms"},
	{"core.replay_ms_p50", "ms"},
	{"core.compare_ms_p50", "ms"},
	{"core.txns", "count"},
	{"trace.frames_ms_p50", "ms"},
	{"trace.decode_ms_p50", "ms"},
	{"trace.bytes", "B"},
	{"serve.open_session_ms_p50", "ms"},
	{"serve.put_segment_ms_p50", "ms"},
	{"serve.put_segment_ms_p99", "ms"},
	{"serve.commit_ms_p50", "ms"},
	{"serve.commit_ms_p99", "ms"},
	{"serve.submit_job_ms_p50", "ms"},
	{"serve.wait_job_ms_p50", "ms"},
	{"serve.wait_job_ms_p99", "ms"},
	{"serve.backlog_ms_p95", "ms"},
	{"serve.requests_per_session", "count"},
	{"serve.store.put_segment_ms_p50", "ms"},
	{"serve.store.put_segment_ms_p99", "ms"},
	{"serve.store.readback_ms_p50", "ms"},
	{"serve.store.commit_ms_p50", "ms"},
	{"serve.store.read_frames_ms_p50", "ms"},
	{"serve.jobs.exec_ms_p50", "ms"},
	{"serve.jobs.queue_ms_p50", "ms"},
	{"serve.segments_total", "count"},
	{"serve.store_faults_total", "count"},
	{"serve.admission_rejects_total", "count"},
	{"serve.jobs_failed_total", "count"},
	{"serve.compression_ratio", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cpu_pct", "%"},
	{"bench.gen_lag_ms_max", "ms"},
	{"bench.host_probe_ms", "ms"},
	{"bench.tracing_overhead_pct", "%"},
	{"bench.layer_coverage_pct", "%"},
	{"bench.samples", "count"},
}...)

// spanQuantiles derive per-layer metrics from the self times of the
// named spans.
var spanQuantiles = map[string]struct {
	spans []string
	q     float64
}{
	"sim.native_ms_p50":              {[]string{"sim.native"}, 0.5},
	"core.record_ms_p50":             {[]string{"core.record"}, 0.5},
	"core.replay_ms_p50":             {[]string{"core.replay"}, 0.5},
	"core.compare_ms_p50":            {[]string{"core.compare", "serve.jobs.compare"}, 0.5},
	"trace.frames_ms_p50":            {[]string{"trace.frames"}, 0.5},
	"trace.decode_ms_p50":            {[]string{"trace.decode"}, 0.5},
	"serve.open_session_ms_p50":      {[]string{"serve.open_session"}, 0.5},
	"serve.put_segment_ms_p50":       {[]string{"serve.put_segment"}, 0.5},
	"serve.put_segment_ms_p99":       {[]string{"serve.put_segment"}, 0.99},
	"serve.commit_ms_p50":            {[]string{"serve.commit"}, 0.5},
	"serve.commit_ms_p99":            {[]string{"serve.commit"}, 0.99},
	"serve.submit_job_ms_p50":        {[]string{"serve.submit_job"}, 0.5},
	"serve.wait_job_ms_p50":          {[]string{"serve.wait_job"}, 0.5},
	"serve.wait_job_ms_p99":          {[]string{"serve.wait_job"}, 0.99},
	"serve.backlog_ms_p95":           {[]string{"bench.backlog"}, 0.95},
	"serve.store.put_segment_ms_p50": {[]string{"serve.store.put_segment"}, 0.5},
	"serve.store.put_segment_ms_p99": {[]string{"serve.store.put_segment"}, 0.99},
	"serve.store.readback_ms_p50":    {[]string{"serve.store.readback"}, 0.5},
	"serve.store.commit_ms_p50":      {[]string{"serve.store.commit"}, 0.5},
	"serve.store.read_frames_ms_p50": {[]string{"serve.store.read_frames"}, 0.5},
	"serve.jobs.exec_ms_p50":         {[]string{"serve.jobs.replay_verify", "serve.jobs.compare"}, 0.5},
}

// value is one reported metric; n is its sample count where it is a
// percentile of pooled samples, and note says more for the text report.
type value struct {
	v    float64
	n    int
	note string
}

// poolReps merges the repetitions' samples and checks that their exact
// outputs agree.
func poolReps(reps []*repResult) (*repResult, error) {
	all := newRepResult()
	for i, r := range reps {
		if i > 0 && (r.Fingerprint != reps[0].Fingerprint || !reflect.DeepEqual(r.Exact, reps[0].Exact)) {
			return nil, fmt.Errorf("%w: repetition %d outputs differ from repetition 0: %s %v, want %s %v",
				errGate, i, r.Fingerprint, r.Exact, reps[0].Fingerprint, reps[0].Exact)
		}
		for k, v := range r.Samples {
			all.Samples[k] = append(all.Samples[k], v...)
		}
		all.Attempted += r.Attempted
		all.Failed += r.Failed
	}
	all.Exact = reps[0].Exact
	return all, nil
}

// scalar is the median of a per-repetition value.
func scalar(reps []*repResult, name string) float64 {
	var xs []float64
	for _, r := range reps {
		xs = append(xs, r.Scalars[name])
	}
	return median(xs)
}

// saturatedRate is a saturated.* count per saturated second, over every
// repetition.
func saturatedRate(reps []*repResult, count string) float64 {
	var n, s float64
	for _, r := range reps {
		n += r.Scalars[count]
		s += r.Scalars["saturated.s"]
	}
	if s == 0 {
		return 0
	}
	return n / s
}

// hostTimeValues derives the hostTime metrics from the untraced ops.
func hostTimeValues(reps []*repResult, all *repResult) map[string]value {
	ops := all.Samples["op"]
	tail := "too few samples for a tail"
	if p, ok := tailQuantile(len(ops)); ok {
		tail = fmt.Sprintf("tail p%g %.6g ms", 100*p, quantile(ops, p))
	}
	return map[string]value{
		"op_ms_p50":        {quantile(ops, 0.5), len(ops), tail},
		"capacity_per_s":   {v: saturatedRate(reps, "saturated.ops")},
		"sim_cycles_per_s": {v: saturatedRate(reps, "saturated.cycles")},
	}
}

// endToEndValues derives the end-to-end and hostTime metrics of untraced
// repetitions.
func endToEndValues(reps []*repResult) (map[string]value, error) {
	all, err := poolReps(reps)
	if err != nil {
		return nil, err
	}
	out := hostTimeValues(reps, all)
	out["setup_s"] = value{v: scalar(reps, "setup_s")}
	out["record_overhead_pct"] = value{v: all.Exact["record_overhead_pct"]}
	out["trace_bytes_per_txn"] = value{v: all.Exact["trace_bytes_per_txn"]}
	// The largest, not the median: a serve process's peak settles at one of
	// two heap sizes, and the largest of three repetitions almost always
	// finds the upper one.
	out["peak_rss_mb"] = value{v: maxScalar(reps, "peak_rss_mb")}
	return out, nil
}

// notReached marks a per-layer metric whose layer the workload never calls.
const notReached = "n/a: the workload does not reach this layer"

// perLayerValues derives the per-layer metrics of traced repetitions.
func perLayerValues(reps []*repResult) (map[string]value, error) {
	all, err := poolReps(reps)
	if err != nil {
		return nil, err
	}
	out := hostTimeValues(reps, all)
	for _, m := range perLayer {
		if v, ok := all.Exact[m.name]; ok {
			out[m.name] = value{v: v}
		} else if _, ok := reps[0].Scalars[m.name]; ok {
			out[m.name] = value{v: scalar(reps, m.name)}
		}
	}
	spans := func(names ...string) (xs []float64) {
		for _, n := range names {
			xs = append(xs, all.Samples[n]...)
		}
		return xs
	}
	for name, sq := range spanQuantiles {
		if xs := spans(sq.spans...); len(xs) > 0 {
			out[name] = value{quantile(xs, sq.q), len(xs), ""}
		}
	}
	if native := spans("sim.native"); len(native) > 0 {
		out["core.record_self_ms_p50"] = value{v: out["core.record_ms_p50"].v - quantile(native, 0.5), n: len(native)}
	}
	if wait, ok := out["serve.wait_job_ms_p50"]; ok {
		busy := out["serve.store.read_frames_ms_p50"].v + out["trace.decode_ms_p50"].v + out["serve.jobs.exec_ms_p50"].v
		out["serve.jobs.queue_ms_p50"] = value{v: wait.v - busy, n: wait.n}
	}
	out["bench.gen_lag_ms_max"] = value{v: maxScalar(reps, "bench.gen_lag_ms_max")}
	untraced, traced := all.Samples["op"], all.Samples["op.traced"]
	if len(untraced) > 0 && len(traced) > 0 {
		out["bench.tracing_overhead_pct"] = value{v: 100 * (quantile(traced, 0.5)/quantile(untraced, 0.5) - 1)}
	}
	ops := append(append([]float64(nil), untraced...), traced...)
	if p, ok := tailQuantile(len(ops)); ok {
		out["op_ms_tail"] = value{quantile(ops, p), len(ops), fmt.Sprintf("p%g", 100*p)}
	} else {
		out["op_ms_tail"] = value{n: len(ops), note: "too few samples for a tail"}
	}
	cov := all.Samples["bench.coverage"]
	out["bench.layer_coverage_pct"] = value{v: 100 * quantile(cov, 0.5)}
	out["bench.samples"] = value{v: float64(len(untraced) + len(traced))}
	for _, m := range perLayer {
		if _, ok := out[m.name]; !ok {
			out[m.name] = value{note: notReached}
		}
	}
	return out, nil
}

func maxScalar(reps []*repResult, name string) float64 {
	m := 0.0
	for _, r := range reps {
		m = max(m, r.Scalars[name])
	}
	return m
}

// printMetrics writes one line per metric: name{workload} value unit,
// with the sample count behind a percentile.
func printMetrics(w io.Writer, workload string, defs []metricDef, vals map[string]value) {
	for _, d := range defs {
		v := vals[d.name]
		if v.note == notReached {
			fmt.Fprintf(w, "%s{%s} n/a %s (the workload does not reach this layer)\n", d.name, workload, d.unit)
			continue
		}
		line := fmt.Sprintf("%s{%s} %.6g %s", d.name, workload, v.v, d.unit)
		if v.n > 0 {
			line += fmt.Sprintf(" n=%d", v.n)
		}
		if v.note != "" {
			line += " (" + v.note + ")"
		}
		fmt.Fprintln(w, line)
	}
}
