package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vidi/internal/core"
	"vidi/internal/serve"
	"vidi/internal/trace"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{39, 0, false},
		{40, 0.75, true},
		{99, 0.75, true},
		{100, 0.9, true},
		{199, 0.9, true},
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	} {
		p, ok := tailQuantile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2}, [3]float64{1.25, 3, 4.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2.5, 7.25, 1.0, 9.5, 3.0, 4.75, 8.0}, [3]float64{2.5, 4.75, 8}},
	} {
		q1, m, q3 := quartiles(c.xs)
		if [3]float64{q1, m, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, m, q3, c.want)
		}
	}
}

func TestPlanIsDrawnFromSeed(t *testing.T) {
	w, _ := findWorkload("serve-replay")
	a := makePlan(7, w, 3*time.Second, 2)
	b := makePlan(7, w, 3*time.Second, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different plans")
	}
	if len(a.arrivals) != 90 || len(a.poolSeeds) != poolSize {
		t.Fatalf("plan has %d arrivals and %d pool seeds; want 90 (30/s for 3 s) and %d", len(a.arrivals), len(a.poolSeeds), poolSize)
	}
	compares, tenantsSeen := 0, map[string]bool{}
	for i, x := range a.arrivals {
		tenantsSeen[x.tenant] = true
		if x.compare {
			compares++
		}
		if x.at < 0 || x.at >= 3*time.Second || i > 0 && x.at < a.arrivals[i-1].at {
			t.Fatalf("arrival %d at %v is out of order or outside the phase", i, x.at)
		}
	}
	if len(tenantsSeen) != tenants || compares != 30 {
		t.Errorf("plan mixes %d tenants and %d compare jobs in %d arrivals; want %d and 30", len(tenantsSeen), compares, len(a.arrivals), tenants)
	}
	if c := makePlan(8, w, 3*time.Second, 2); reflect.DeepEqual(a.arrivals, c.arrivals) || reflect.DeepEqual(a.poolSeeds, c.poolSeeds) {
		t.Error("different seeds drew the same plan")
	}

	// The pool recorded from the seeds is the same too.
	x, y := newRepResult(), newRepResult()
	if _, err := recordPool(w, a.poolSeeds[:4], x); err != nil {
		t.Fatal(err)
	}
	if _, err := recordPool(w, b.poolSeeds[:4], y); err != nil {
		t.Fatal(err)
	}
	if x.Fingerprint != y.Fingerprint || !reflect.DeepEqual(x.Exact, y.Exact) {
		t.Errorf("the same pool seeds recorded different pools: %s vs %s", x.Fingerprint, y.Fingerprint)
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "root", ID: 1, Start: at(0), End: at(100)},
		{Name: "a", ID: 2, Parent: 1, Start: at(10), End: at(40)},
		{Name: "b", ID: 3, Parent: 1, Start: at(30), End: at(60)}, // overlaps a
		{Name: "a.1", ID: 4, Parent: 2, Start: at(15), End: at(20)},
		{Name: "c", ID: 5, Parent: 1, Start: at(90), End: at(120)}, // runs past its parent
	}
	want := map[int]float64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 5, 5: 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	grammar := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, defs []metricDef, names, units []string, limit int) {
		if len(defs) > limit {
			t.Errorf("%d %s metrics, the limit is %d", len(defs), kind, limit)
		}
		var gotNames, gotUnits []string
		for _, d := range defs {
			gotNames, gotUnits = append(gotNames, d.name), append(gotUnits, d.unit)
			if !grammar.MatchString(d.name) {
				t.Errorf("%s metric %q breaks the name grammar", kind, d.name)
			}
		}
		if !reflect.DeepEqual(gotNames, names) || !reflect.DeepEqual(gotUnits, units) {
			t.Errorf("%s metrics emitted %v %v, BENCHMARK.json lists %v %v", kind, gotNames, gotUnits, names, units)
		}
	}
	// Every bound is at most a tenth, except set-up's, which is the largest
	// and at most a quarter.
	var names, units []string
	for _, m := range spec.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		limit := 0.10
		if m.Name == "setup_s" {
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %v is outside (0, %v]", m.Name, m.Bound, limit)
		}
	}
	check("end-to-end", endToEnd, names, units, 16)
	names, units = nil, nil
	for _, m := range spec.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per-layer", perLayer, names, units, 128)
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	for i, w := range workloads {
		if i >= len(ws) || ws[i] != w.name {
			t.Errorf("workload %d is %q here, %v in BENCHMARK.json", i, w.name, ws)
		}
	}
}

// smoke runs workloads in this process for a short measured phase and
// returns the exit code and what was printed.
func smoke(t *testing.T, o options) (int, string, string) {
	t.Helper()
	o.seed, o.seconds, o.reps, o.inProcess = 3, 1, 1, true
	o.workDir = t.TempDir()
	var stdout, stderr bytes.Buffer
	code := execute(context.Background(), o, "", &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// notReachedBy lists, per workload, the per-layer metrics of layers its
// ops never call; a traced run must mark exactly these n/a.
var notReachedBy = func() map[string][]string {
	var serve []string
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "serve.") {
			serve = append(serve, d.name)
		}
	}
	loopOnly := []string{"sim.native_ms_p50", "core.record_ms_p50", "core.record_self_ms_p50", "core.replay_ms_p50"}
	return map[string][]string{
		"loop-txn":  serve,
		"loop-idle": serve,
		"serve-ingest": append([]string{"sim.replay_evals_per_cycle", "sim.replay_batched_ratio", "core.compare_ms_p50",
			"serve.submit_job_ms_p50", "serve.wait_job_ms_p50", "serve.wait_job_ms_p99", "serve.store.read_frames_ms_p50",
			"serve.jobs.exec_ms_p50", "serve.jobs.queue_ms_p50"}, loopOnly...),
		"serve-replay": append([]string{"trace.frames_ms_p50", "serve.open_session_ms_p50", "serve.put_segment_ms_p50",
			"serve.put_segment_ms_p99", "serve.commit_ms_p50", "serve.commit_ms_p99", "serve.store.put_segment_ms_p50",
			"serve.store.put_segment_ms_p99", "serve.store.readback_ms_p50", "serve.store.commit_ms_p50"}, loopOnly...),
	}
}()

// mayReadZero are per-layer times a reached layer can still report as 0 or
// less: a tail needs more ops than a smoke run makes, and the others are
// differences of medians.
var mayReadZero = map[string]bool{"op_ms_tail": true, "core.record_self_ms_p50": true, "serve.jobs.queue_ms_p50": true}

// TestSmokeAllWorkloads runs every workload for about a second, untraced
// and traced, all at once, and checks each printed report. The runs spend
// much of their time waiting on fsync, so they share two CPUs better than
// test parallelism, which runs GOMAXPROCS tests at a time, lets them.
func TestSmokeAllWorkloads(t *testing.T) {
	t.Parallel()
	type run struct {
		w              workload
		traced         bool
		traceDir       string
		code           int
		out, errs, key string
	}
	var runs []*run
	var wg sync.WaitGroup
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			r := &run{w: w, traced: traced, key: map[bool]string{false: "untraced", true: "traced"}[traced] + "/" + w.name}
			if traced {
				r.traceDir = t.TempDir()
			}
			runs = append(runs, r)
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.code, r.out, r.errs = smoke(t, options{workloads: []workload{w}, traced: traced, traceDir: r.traceDir})
			}()
		}
	}
	wg.Wait()
	for _, r := range runs {
		t.Run(r.key, func(t *testing.T) { checkSmoke(t, r.w, r.traced, r.traceDir, r.code, r.out, r.errs) })
	}
}

func checkSmoke(t *testing.T, w workload, traced bool, traceDir string, code int, out, errs string) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var summary struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("last line is not the JSON summary: %v", err)
	}
	if !summary.Correct || summary.Attempted < 1 || summary.Failed != 0 || len(summary.Metrics) != len(defs) {
		t.Errorf("summary %+v", summary)
	}
	var na []string
	for _, d := range defs {
		m, ok := summary.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s missing or mislabelled: %+v", d.name, m)
		}
		switch {
		case !traced && m.Value <= 0:
			t.Errorf("%s = %v: end-to-end metrics are never 0", d.name, m.Value)
		case !traced:
		case strings.Contains(out, d.name+"{"+w.name+"} n/a "):
			na = append(na, d.name)
		case d.unit == "ms" && !mayReadZero[d.name] && m.Value <= 0:
			t.Errorf("%s reads %v ms: the layer was not timed", d.name, m.Value)
		}
	}
	if !traced {
		return
	}
	want := append([]string(nil), notReachedBy[w.name]...)
	sort.Strings(want)
	sort.Strings(na)
	if !reflect.DeepEqual(na, want) {
		t.Errorf("marks %v n/a, want %v", na, want)
	}
	if cov := summary.Metrics["bench.layer_coverage_pct"].Value; cov < 90 {
		t.Errorf("named layers cover %.1f%% of an operation", cov)
	}
	files, _ := filepath.Glob(filepath.Join(traceDir, "*.json"))
	var ev struct{ TraceEvents []map[string]any }
	if len(files) != 1 {
		t.Fatalf("%d span files, want 1", len(files))
	}
	if err := readJSON(files[0], &ev); err != nil || len(ev.TraceEvents) == 0 {
		t.Errorf("span file %s: %v, %d events", files[0], err, len(ev.TraceEvents))
	}
}

// gateFires runs one workload with a planted failure and checks that the
// run fails without printing a number.
func gateFires(t *testing.T, name string, plant repConfig) {
	t.Helper()
	t.Parallel()
	w, _ := findWorkload(name)
	code, out, errs := smoke(t, options{workloads: []workload{w}, plant: plant})
	if code == 0 || out != "" || !strings.Contains(errs, errGate.Error()) {
		t.Errorf("planted failure in %s: exit %d, stdout %q, stderr %q", name, code, out, errs)
	}
}

func TestGateDivergentReplay(t *testing.T) {
	gateFires(t, "loop-idle", repConfig{mutateReplay: func(tr *trace.Trace) error {
		return core.SwapEnds(tr, "pcis.B", 0, "irq", 0)
	}})
}

func TestGateFlippedManifestHash(t *testing.T) {
	gateFires(t, "serve-ingest", repConfig{mutateManifest: func(m *serve.Manifest) {
		m.BodySHA256 = strings.Repeat("0", 64)
	}})
}

// TestGateUncleanJob plants an unclean verdict in a replay and a compare
// job. A whole serve-replay run commits 64 runs before its first job, so
// the test drives the load generator directly on one recording committed
// twice; TestGateFlippedManifestHash covers how a serve run exits on a
// gate.
func TestGateUncleanJob(t *testing.T) {
	t.Parallel()
	w, _ := findWorkload("serve-replay")
	pool, err := recordPool(w, []int64{1}, newRepResult())
	if err != nil {
		t.Fatal(err)
	}
	h, err := startHost(filepath.Join(t.TempDir(), "store"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.stop()
	s := &serveRep{rc: repConfig{workload: w}, pool: pool, host: h, clients: 1}
	ctx := context.Background()
	for _, second := range []bool{false, true} {
		if err := s.session(ctx, arrival{tenant: "t0"}, poolRun(0, second), 0, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.rc.mutateJob = func(j *serve.Job) {
		clean := false
		j.Clean, j.Divergences = &clean, 1
	}
	for _, compare := range []bool{false, true} {
		if _, err := s.run(ctx, arrival{tenant: "t0", compare: compare}, "job", 0, nil, time.Now()); !errors.Is(err, errGate) {
			t.Errorf("compare %v: an unclean job gave %v, want a gate error", compare, err)
		}
	}
	if s.attempted != 2 || s.failed != 2 {
		t.Errorf("%d of %d unclean jobs counted as failed, want all", s.failed, s.attempted)
	}
}

func TestVerdict(t *testing.T) {
	// ten returns ten runs from x to x+0.9.
	ten := func(x float64) []float64 {
		var xs []float64
		for i := range 10 {
			xs = append(xs, x+float64(i)/10)
		}
		return xs
	}
	for _, c := range []struct {
		a, b  []float64
		bound float64
		lower bool
		want  string
	}{
		{[]float64{10, 10.1, 10.2}, []float64{12, 12.1, 12.2}, 0.05, true, "worse"},
		{[]float64{10, 10.1, 10.2}, []float64{12, 12.1, 12.2}, 0.05, false, "better"},
		{[]float64{10, 10.1, 9.9}, []float64{10, 10.05, 9.95}, 0.05, true, "within-bound"},
		{[]float64{5, 10, 15, 20}, []float64{6, 11, 14, 19}, 0.05, true, "unresolved"},
		{[]float64{5, 6, 7, 8}, []float64{10, 11, 12, 13}, 0.05, true, "unresolved"},          // wide; B loses every run, but four runs a side prove nothing
		{[]float64{10, 10.1, 10.2}, []float64{10.3, 10.35, 10.4}, 0.05, true, "within-bound"}, // every run of B loses, by less than the bound
		{[]float64{8.9, 8.9}, []float64{8.9, 8.9}, 0.05, true, "within-bound"},
		{ten(5), ten(7), 0.05, true, "worse"}, // wide, but all ten runs of B lose
		{ten(5), ten(7), 0.05, false, "better"},
		{ten(5), ten(5.5), 0.05, true, "unresolved"}, // wide and overlapping
		{ten(5), ten(7), 0, true, "worse"},           // no bound: separation alone decides
		{[]float64{5, 6, 7}, []float64{10, 11, 12}, 0, true, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.bound, c.lower); got != c.want {
			t.Errorf("verdict(%v, %v, bound=%v, lower=%v) = %s, want %s", c.a, c.b, c.bound, c.lower, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, probe, op float64, failed int) string {
		rf := resultsFile{Runs: []*report{{Workload: "serve-ingest", Attempted: 100, Failed: failed, PerRep: []map[string]float64{
			{"bench.host_probe_ms": probe, "op_ms_p50": op, "peak_rss_mb": 40},
			{"bench.host_probe_ms": probe, "op_ms_p50": op + 1, "peak_rss_mb": 41},
		}}}}
		data, _ := json.Marshal(rf)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	// B's ops got faster, but more of them failed.
	if err := compareFiles(&out, "../BENCHMARK.json", write("a.json", 6, 100, 0), write("b.json", 9, 60, 3)); err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && strings.Contains(f[0], "{") {
			verdicts[f[0]] = f[len(f)-1]
		}
	}
	for metric, want := range map[string]string{
		"peak_rss_mb{serve-ingest}":  "within-bound",
		"op_ms_p50{serve-ingest}":    "unresolved", // no bound, two runs a side
		"failed_share{serve-ingest}": "worse",
	} {
		if verdicts[metric] != want {
			t.Errorf("%s: verdict %q, want %q", metric, verdicts[metric], want)
		}
	}
	if !strings.Contains(out.String(), "warning: serve-ingest: the host probe differs") {
		t.Errorf("no host-drift warning in\n%s", out.String())
	}
}
