// vidi-top is the run inspector of the unified telemetry layer: it renders
// sorted end-of-run tables — a scheduler overview, hottest monitored
// channels, AXI engine traffic, stall/retry totals — from a
// metrics snapshot, or runs an instrumented recording itself, or
// validates and summarises a Perfetto timeline.
//
// Usage:
//
//	vidi-top -metrics snap.json       # inspect a snapshot (vidi-record/-bench -metrics)
//	vidi-top -app sssp -seed 42       # run an instrumented R2 recording, then inspect it
//	vidi-top -trace timeline.json     # validate + summarise a trace_event timeline
//	vidi-top -url http://host:9412    # scrape a live vidi-serve /metrics and inspect it
//	vidi-top -url ... -watch 2s       # re-scrape and re-render on an interval
//	vidi-top -load BENCH_serve.json   # render a vidi-load report (add -url for live quantiles)
//
// File snapshots must be the JSON encoding (-metrics with a .json path);
// -url reads the Prometheus text form a live /metrics endpoint serves.
// Ranked tables order by value (descending) by default; -sort name orders
// them by row name instead, and equal-valued rows always keep a stable
// name order either way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"vidi/internal/apps"
	"vidi/internal/eval"
	"vidi/internal/serve"
	"vidi/internal/telemetry"
)

func main() {
	metricsPath := flag.String("metrics", "", "metrics snapshot JSON to inspect")
	tracePath := flag.String("trace", "", "trace_event timeline JSON to validate and summarise")
	app := flag.String("app", "", "run one instrumented R2 recording of this app and inspect it: "+strings.Join(apps.Names(), ", "))
	url := flag.String("url", "", "scrape a live /metrics endpoint (Prometheus text) and inspect it")
	watch := flag.Duration("watch", 0, "with -url: re-scrape and re-render on this interval (0 = once)")
	loadPath := flag.String("load", "", "render a vidi-load report (BENCH_serve.json)")
	seed := flag.Int64("seed", 1, "environment timing seed (with -app)")
	scale := flag.Int("scale", 1, "workload scale factor (with -app)")
	topN := flag.Int("top", 8, "rows shown per table")
	sortFlag := flag.String("sort", "value", "ranked-table row order: value|name")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "vidi-top:", err)
		os.Exit(1)
	}
	switch *sortFlag {
	case sortByValue, sortByName:
	default:
		fail(fmt.Errorf("unknown -sort %q (want value or name)", *sortFlag))
	}
	sortMode = *sortFlag
	switch {
	case *loadPath != "":
		if err := renderLoad(os.Stdout, *loadPath, *topN); err != nil {
			fail(err)
		}
		if *url != "" {
			fmt.Println()
			if err := watchURL(os.Stdout, *url, *watch, *topN); err != nil {
				fail(err)
			}
		}
	case *url != "":
		if err := watchURL(os.Stdout, *url, *watch, *topN); err != nil {
			fail(err)
		}
	case *metricsPath != "":
		f, err := os.Open(*metricsPath)
		if err != nil {
			fail(err)
		}
		snap, err := telemetry.ReadSnapshot(f)
		f.Close()
		if err != nil {
			fail(fmt.Errorf("%s: %w (vidi-top reads the .json snapshot form, not Prometheus text)", *metricsPath, err))
		}
		render(os.Stdout, snap, *topN)
	case *app != "":
		sink := telemetry.New()
		res, err := eval.Run(eval.RunConfig{App: *app, Scale: *scale, Seed: *seed, Cfg: eval.R2, Telemetry: sink})
		if err != nil {
			fail(err)
		}
		if res.CheckErr != nil {
			fail(fmt.Errorf("%s: golden check failed: %w", *app, res.CheckErr))
		}
		fmt.Printf("%s: %d cycles recorded, %d transactions\n\n", *app, res.Cycles, res.Trace.TotalTransactions())
		render(os.Stdout, sink.Gather(), *topN)
	case *tracePath != "":
		if err := summariseTrace(os.Stdout, *tracePath, *topN); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// Ranked-table sort modes (-sort flag).
const (
	sortByValue = "value"
	sortByName  = "name"
)

// sortMode is the process-wide -sort selection (value by default).
var sortMode = sortByValue

// row is one line of a sorted table: a display key plus named columns.
type row struct {
	key  string
	cols []float64
}

// sig canonicalises a label set for cross-family series matching and
// display: sorted k=v pairs joined by commas.
func sig(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}

// values indexes one family's series by label signature (empty map when the
// family is absent).
func values(snap *telemetry.Snapshot, family string) map[string]float64 {
	out := map[string]float64{}
	f := snap.Family(family)
	if f == nil {
		return out
	}
	for _, se := range f.Series {
		out[sig(se.Labels)] += se.Value
	}
	return out
}

// render writes the inspection tables. A snapshot scraped from vidi-serve
// gets the service table; the simulation tables render only when their
// families are present, so a pure service scrape stays compact.
func render(w io.Writer, snap *telemetry.Snapshot, topN int) {
	serve := renderService(w, snap)
	if serve && snap.Family("vidi_sched_cycles") == nil {
		return
	}
	renderOverview(w, snap)
	renderChannels(w, snap, topN)
	renderEngines(w, snap, topN)
	renderStalls(w, snap)
}

// renderService shows the vidi-serve families when the snapshot came from
// a live service scrape; simulation snapshots don't carry them and skip
// the section entirely.
func renderService(w io.Writer, snap *telemetry.Snapshot) bool {
	found := false
	for _, f := range snap.Families {
		if strings.HasPrefix(f.Name, "vidi_serve_") {
			found = true
			break
		}
	}
	if !found {
		return false
	}
	fmt.Fprintf(w, "== vidi-serve ==\n")
	fmt.Fprintf(w, "sessions open %.0f  breaker %.1f  jobs queued %.0f\n",
		snap.Total("vidi_serve_sessions_open"), snap.Total("vidi_serve_breaker_state"),
		snap.Total("vidi_serve_jobs_queued"))
	kv := func(label string, v float64) {
		if v != 0 {
			fmt.Fprintf(w, "%-32s %10.0f\n", label, v)
		}
	}
	for _, f := range snap.Families {
		if !strings.HasPrefix(f.Name, "vidi_serve_") || !strings.HasSuffix(f.Name, "_total") {
			continue
		}
		label := strings.TrimSuffix(strings.TrimPrefix(f.Name, "vidi_serve_"), "_total")
		if f.Name == "vidi_serve_http_responses_total" {
			for _, e := range sortedKVList(values(snap, f.Name)) {
				kv("http responses {"+e.key+"}", e.val)
			}
			continue
		}
		kv(strings.ReplaceAll(label, "_", " "), snap.Total(f.Name))
	}
	fmt.Fprintln(w)
	renderLatency(w, snap)
	return true
}

// renderLatency shows the live per-endpoint request-latency quantiles a
// vidi-serve scrape carries (the summary family vidi-load also reports
// from the client side).
func renderLatency(w io.Writer, snap *telemetry.Snapshot) {
	f := snap.Family("vidi_serve_request_duration_seconds")
	if f == nil {
		return
	}
	fmt.Fprintf(w, "== request latency by endpoint ==\n")
	fmt.Fprintf(w, "%-14s %9s %9s %9s %9s %9s %9s\n",
		"endpoint", "count", "mean ms", "p50 ms", "p90 ms", "p95 ms", "p99 ms")
	type lrow struct {
		name                     string
		count                    uint64
		mean, p50, p90, p95, p99 float64
	}
	rows := make([]lrow, 0, len(f.Series))
	for _, se := range f.Series {
		if se.Count == 0 {
			continue
		}
		toMS := func(p float64) float64 { return se.QuantileValue(p) * 1000 }
		rows = append(rows, lrow{
			name:  se.Labels["endpoint"],
			count: se.Count,
			mean:  se.Sum / float64(se.Count) * 1000,
			p50:   toMS(0.5), p90: toMS(0.9), p95: toMS(0.95), p99: toMS(0.99),
		})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if sortMode == sortByValue && rows[i].count != rows[j].count {
			return rows[i].count > rows[j].count
		}
		return rows[i].name < rows[j].name
	})
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %9d %9.2f %9.2f %9.2f %9.2f %9.2f\n",
			r.name, r.count, r.mean, r.p50, r.p90, r.p95, r.p99)
	}
	fmt.Fprintln(w)
}

// renderLoad renders a vidi-load report (BENCH_serve.json): the run
// digest, the per-endpoint latency table, and the client's slowest
// requests with their ids for cross-referencing against /v1/slow.
func renderLoad(w io.Writer, path string, topN int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep serve.LoadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: not a vidi-load report: %w", path, err)
	}
	fmt.Fprintf(w, "== vidi-load report: %s ==\n", path)
	fmt.Fprintf(w, "seed %d  url %s  sessions %d  peak concurrent %d  duration %.0fms\n",
		rep.Seed, rep.URL, rep.Sessions, rep.PeakConcurrent, rep.DurationMS)
	fmt.Fprintf(w, "requests %d (%.0f/s)  errors %d (ratio %.4f)  failed sessions %d\n",
		rep.Requests, rep.RequestsPerSec, rep.ErrorCount, rep.ErrorRatio, rep.FailedSessions)
	fmt.Fprintf(w, "recorded %d  replayed %d  compared %d  degraded %d  divergences %d  gap frames %d\n",
		rep.Recorded, rep.Replayed, rep.Compared, rep.Degraded, rep.Divergences, rep.GapFrames)
	fmt.Fprintf(w, "slow exemplars correlated %d/%d  compression ratio %.2f\n\n",
		rep.SlowCorrelated, rep.SlowChecked, rep.CompressionRatio)

	fmt.Fprintf(w, "%-14s %9s %7s %9s %9s %9s %9s %9s\n",
		"endpoint", "count", "errors", "p50 ms", "p90 ms", "p95 ms", "p99 ms", "p99.9 ms")
	eps := append([]serve.EndpointStats(nil), rep.Endpoints...)
	sort.SliceStable(eps, func(i, j int) bool {
		if sortMode == sortByValue && eps[i].Count != eps[j].Count {
			return eps[i].Count > eps[j].Count
		}
		return eps[i].Endpoint < eps[j].Endpoint
	})
	for _, e := range eps {
		fmt.Fprintf(w, "%-14s %9d %7d %9.2f %9.2f %9.2f %9.2f %9.2f\n",
			e.Endpoint, e.Count, e.Errors, e.P50MS, e.P90MS, e.P95MS, e.P99MS, e.P999MS)
	}
	if len(rep.SlowestRequests) > 0 {
		fmt.Fprintf(w, "\n%-20s %-14s %7s %10s\n", "slowest request id", "endpoint", "status", "ms")
		for i, s := range rep.SlowestRequests {
			if i >= topN {
				fmt.Fprintf(w, "(%d more)\n", len(rep.SlowestRequests)-topN)
				break
			}
			fmt.Fprintf(w, "%-20s %-14s %7d %10.2f\n", s.RequestID, s.Endpoint, s.Status, s.DurationMS)
		}
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
	return nil
}

func renderOverview(w io.Writer, snap *telemetry.Snapshot) {
	fmt.Fprintf(w, "== run overview ==\n")
	fmt.Fprintf(w, "cycles %.0f  modules %.0f  evals %.0f  waves %.0f\n\n",
		snap.Total("vidi_sched_cycles"), snap.Total("vidi_sched_modules"),
		snap.Total("vidi_sched_evals_total"), snap.Total("vidi_sched_waves_total"))
}

// renderChannels ranks the monitored boundary channels by observed events.
func renderChannels(w io.Writer, snap *telemetry.Snapshot, topN int) {
	fmt.Fprintf(w, "== hottest monitored channels ==\n")
	observed := values(snap, "vidi_monitor_observed_events_total")
	if len(observed) == 0 {
		fmt.Fprintf(w, "(no monitor series — transparent run, or nothing gathered)\n\n")
		return
	}
	recorded := values(snap, "vidi_monitor_recorded_events_total")
	gapped := values(snap, "vidi_monitor_gapped_ends_total")
	rows := make([]row, 0, len(observed))
	for k, v := range observed {
		rows = append(rows, row{key: k, cols: []float64{v, recorded[k], gapped[k]}})
	}
	sortRows(rows)
	fmt.Fprintf(w, "%-32s %10s %10s %8s\n", "channel", "observed", "recorded", "gapped")
	for i, r := range rows {
		if i >= topN {
			fmt.Fprintf(w, "(%d more)\n", len(rows)-topN)
			break
		}
		fmt.Fprintf(w, "%-32s %10.0f %10.0f %8.0f\n", r.key, r.cols[0], r.cols[1], r.cols[2])
	}
	fmt.Fprintln(w)
}

// renderEngines ranks the environment-side AXI engines by beats moved.
func renderEngines(w io.Writer, snap *telemetry.Snapshot, topN int) {
	fmt.Fprintf(w, "== AXI engine traffic ==\n")
	beats := values(snap, "vidi_axi_beats_total")
	if len(beats) == 0 {
		fmt.Fprintf(w, "(no engine series gathered)\n\n")
		return
	}
	bursts := values(snap, "vidi_axi_bursts_total")
	rows := make([]row, 0, len(beats))
	for k, v := range beats {
		rows = append(rows, row{key: k, cols: []float64{v, bursts[k]}})
	}
	sortRows(rows)
	fmt.Fprintf(w, "%-32s %10s %10s\n", "engine", "beats", "bursts")
	for i, r := range rows {
		if i >= topN {
			fmt.Fprintf(w, "(%d more)\n", len(rows)-topN)
			break
		}
		fmt.Fprintf(w, "%-32s %10.0f %10.0f\n", r.key, r.cols[0], r.cols[1])
	}
	fmt.Fprintln(w)
}

// renderStalls totals everything that slowed or degraded the run.
func renderStalls(w io.Writer, snap *telemetry.Snapshot) {
	fmt.Fprintf(w, "== stalls, retries, degradation ==\n")
	kv := func(label string, v float64) { fmt.Fprintf(w, "%-32s %10.0f\n", label, v) }
	kv("encoder denials", snap.Total("vidi_encoder_denials_total"))
	kv("encoder gaps", snap.Total("vidi_encoder_gaps_total"))
	kv("unrecorded ends", snap.Total("vidi_encoder_unrecorded_ends_total"))
	for _, e := range sortedKVList(values(snap, "vidi_store_retries_total")) {
		kv("store retries {"+e.key+"}", e.val)
	}
	for _, e := range sortedKVList(values(snap, "vidi_store_stalls_total")) {
		kv("store stalls {"+e.key+"}", e.val)
	}
	kv("replay gate stalls", snap.Total("vidi_replay_gate_stalls_total"))
	kv("replay fetch stalls", snap.Total("vidi_replay_fetch_stalls_total"))
	kv("shell IRQs", snap.Total("vidi_shell_irqs_total"))
	for _, e := range sortedKVList(values(snap, "vidi_fault_injections_total")) {
		kv("fault injections {"+e.key+"}", e.val)
	}
	if f := snap.Family("vidi_cpu_jitter_cycles"); f != nil {
		var sum float64
		var count uint64
		for _, se := range f.Series {
			sum += se.Sum
			count += se.Count
		}
		if count > 0 {
			fmt.Fprintf(w, "%-32s %10d (mean %.1f cycles)\n", "cpu jitter draws", count, sum/float64(count))
		}
	}
}

type kvEntry struct {
	key string
	val float64
}

// sortedKVList orders a signature-keyed value map for stable display.
func sortedKVList(m map[string]float64) []kvEntry {
	out := make([]kvEntry, 0, len(m))
	for k, v := range m {
		out = append(out, kvEntry{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// sortRows orders rows per the -sort flag: by the first column descending
// with a key-ascending tiebreak (value, the default), or by key ascending
// (name). Equal-valued rows therefore always render in a deterministic
// name order.
func sortRows(rows []row) {
	sort.SliceStable(rows, func(i, j int) bool {
		if sortMode == sortByValue && rows[i].cols[0] != rows[j].cols[0] {
			return rows[i].cols[0] > rows[j].cols[0]
		}
		return rows[i].key < rows[j].key
	})
}

// traceEvent mirrors the Chrome trace_event fields vidi emits.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   *float64          `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// summariseTrace validates a trace_event JSON document the way Perfetto's
// importer would reject it — unknown phases, complete events without
// timestamps or with negative durations — and prints a per-track summary.
func summariseTrace(w io.Writer, path string, topN int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var doc traceDoc
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return fmt.Errorf("%s: not trace_event JSON: %w", path, err)
	}
	type trackStat struct {
		name          string
		spans         int
		instants      int
		totalDur      float64
		firstTs, last float64
	}
	procs := map[int]string{}
	threads := map[[2]int]string{}
	stats := map[[2]int]*trackStat{}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				procs[ev.Pid] = ev.Args["name"]
			case "thread_name":
				threads[[2]int{ev.Pid, ev.Tid}] = ev.Args["name"]
			default:
				return fmt.Errorf("%s: event %d: unknown metadata record %q", path, i, ev.Name)
			}
		case "X", "i":
			if ev.Ts == nil {
				return fmt.Errorf("%s: event %d (%q): missing ts", path, i, ev.Name)
			}
			if ev.Ph == "X" && ev.Dur <= 0 {
				return fmt.Errorf("%s: event %d (%q): complete event with dur %v", path, i, ev.Name, ev.Dur)
			}
			key := [2]int{ev.Pid, ev.Tid}
			st := stats[key]
			if st == nil {
				st = &trackStat{firstTs: *ev.Ts}
				stats[key] = st
			}
			if *ev.Ts < st.firstTs {
				st.firstTs = *ev.Ts
			}
			if end := *ev.Ts + ev.Dur; end > st.last {
				st.last = end
			}
			if ev.Ph == "X" {
				st.spans++
				st.totalDur += ev.Dur
			} else {
				st.instants++
			}
		default:
			return fmt.Errorf("%s: event %d (%q): unsupported phase %q", path, i, ev.Name, ev.Ph)
		}
	}
	list := make([]*trackStat, 0, len(stats))
	for key, st := range stats {
		proc, thr := procs[key[0]], threads[key]
		if proc == "" || thr == "" {
			return fmt.Errorf("%s: track pid=%d tid=%d has events but no name metadata", path, key[0], key[1])
		}
		st.name = proc + "/" + thr
		list = append(list, st)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].totalDur != list[j].totalDur {
			return list[i].totalDur > list[j].totalDur
		}
		return list[i].name < list[j].name
	})
	fmt.Fprintf(w, "%s: valid trace_event JSON, %d events across %d tracks\n\n",
		path, len(doc.TraceEvents), len(list))
	fmt.Fprintf(w, "%-32s %8s %9s %12s %12s\n", "track", "spans", "instants", "busy cycles", "span [first,last)")
	for i, st := range list {
		if i >= topN {
			fmt.Fprintf(w, "(%d more)\n", len(list)-topN)
			break
		}
		fmt.Fprintf(w, "%-32s %8d %9d %12.0f [%.0f,%.0f)\n",
			st.name, st.spans, st.instants, st.totalDur, st.firstTs, st.last)
	}
	return nil
}

// watchURL scrapes a live Prometheus /metrics endpoint and renders the
// snapshot tables, once or on an interval. A bare server URL (no path, or
// "/") gets "/metrics" appended so `-url http://host:9412` just works.
func watchURL(w io.Writer, url string, interval time.Duration, topN int) error {
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if i := strings.Index(url, "://"); !strings.Contains(url[i+3:], "/") || strings.HasSuffix(url, "/") {
		url = strings.TrimSuffix(url, "/") + "/metrics"
	}
	for {
		snap, err := scrape(url)
		if err != nil {
			return err
		}
		if interval > 0 {
			//lint:detaudit header timestamp on a live watch-mode banner; the rendered metrics come from the scraped snapshot, not the clock
			fmt.Fprintf(w, "-- %s @ %s --\n", url, time.Now().Format(time.TimeOnly))
		}
		render(w, snap, topN)
		if interval <= 0 {
			return nil
		}
		time.Sleep(interval)
	}
}

func scrape(url string) (*telemetry.Snapshot, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	snap, err := telemetry.ParsePrometheus(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return snap, nil
}
