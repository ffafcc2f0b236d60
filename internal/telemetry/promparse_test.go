package telemetry

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestPrometheusRoundTrip gathers a mixed registry, writes the text
// exposition, parses it back, and demands the snapshot survives: same
// family names/kinds, same folded values, same summary quantiles.
func TestPrometheusRoundTrip(t *testing.T) {
	sink := New(WithConstLabels(L("app", "sssp")))
	sink.CounterFunc("vidi_rt_events_total", "Events with a \"quoted\" label.", count(42), L("kind", "link-brownout"))
	sink.GaugeFunc("vidi_rt_depth", "Queue depth.", value(3.5))
	h := sink.Quantile("vidi_rt_latency_cycles", "Latency.")
	for _, v := range []float64{0.5, 2, 2, 9, 100} {
		h.Observe(v)
	}

	want := sink.Gather()
	var buf bytes.Buffer
	if err := want.WritePrometheus(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("parse: %v\ntext:\n%s", err, buf.String())
	}

	if len(got.Families) != len(want.Families) {
		t.Fatalf("family count: got %d, want %d", len(got.Families), len(want.Families))
	}
	for i, wf := range want.Families {
		gf := got.Families[i]
		if gf.Name != wf.Name || gf.Kind != wf.Kind {
			t.Errorf("family %d: got %s/%s, want %s/%s", i, gf.Name, gf.Kind, wf.Name, wf.Kind)
		}
	}
	if v := got.Total("vidi_rt_events_total"); v != 42 {
		t.Errorf("counter total: got %v, want 42", v)
	}
	if v := got.Total("vidi_rt_depth"); v != 3.5 {
		t.Errorf("gauge total: got %v, want 3.5", v)
	}
	cf := got.Family("vidi_rt_events_total")
	if cf == nil || len(cf.Series) != 1 {
		t.Fatalf("counter family missing or wrong arity: %+v", cf)
	}
	wantLabels := map[string]string{"app": "sssp", "kind": "link-brownout"}
	if !reflect.DeepEqual(cf.Series[0].Labels, wantLabels) {
		t.Errorf("labels: got %v, want %v", cf.Series[0].Labels, wantLabels)
	}

	hf := got.Family("vidi_rt_latency_cycles")
	whf := want.Family("vidi_rt_latency_cycles")
	if hf == nil || len(hf.Series) != 1 {
		t.Fatalf("summary family missing: %+v", hf)
	}
	gs, ws := hf.Series[0], whf.Series[0]
	if gs.Count != ws.Count || gs.Sum != ws.Sum {
		t.Errorf("summary sum/count: got %v/%d, want %v/%d", gs.Sum, gs.Count, ws.Sum, ws.Count)
	}
	if !reflect.DeepEqual(gs.Quantiles, ws.Quantiles) {
		t.Errorf("summary quantiles: got %v, want %v", gs.Quantiles, ws.Quantiles)
	}
}

// TestParsePrometheusForeign exercises latitude the exposition format
// allows but our writer never emits: no HELP, untyped samples, timestamps,
// blank and comment lines, and histogram lines, which parse as untyped
// series.
func TestParsePrometheusForeign(t *testing.T) {
	text := strings.Join([]string{
		"# a bare comment",
		"",
		"up 1",
		"requests_total{code=\"200\"} 7 1712000000000",
		"requests_total{code=\"500\"} 1",
		"# TYPE latency_seconds histogram",
		"latency_seconds_bucket{le=\"0.1\"} 3",
		"latency_seconds_bucket{le=\"+Inf\"} 4",
		"latency_seconds_sum 0.7",
		"latency_seconds_count 4",
	}, "\n")
	snap, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if v := snap.Total("up"); v != 1 {
		t.Errorf("up: got %v", v)
	}
	if v := snap.Total("requests_total"); v != 8 {
		t.Errorf("requests_total: got %v", v)
	}
	if f := snap.Family("latency_seconds_bucket"); f == nil || f.Kind != "untyped" || len(f.Series) != 2 {
		t.Errorf("histogram buckets not parsed as untyped series: %+v", f)
	}
	if v := snap.Total("latency_seconds_count"); v != 4 {
		t.Errorf("latency_seconds_count: got %v", v)
	}
	if f := snap.Family("latency_seconds"); f != nil {
		t.Errorf("histogram family without samples kept: %+v", f)
	}
}

// TestParsePrometheusCorrupt demands typed errors, not panics, on mangled
// input.
func TestParsePrometheusCorrupt(t *testing.T) {
	for _, bad := range []string{
		"name{k=\"unterminated} 1",
		"name{k=unquoted} 1",
		"lonelyname",
		"name notanumber",
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("%q: expected error", bad)
		}
	}
}

// TestParsePrometheusEscapedLabels: label values containing quotes,
// backslashes and newlines survive the exposition escaping both ways.
func TestParsePrometheusEscapedLabels(t *testing.T) {
	hairy := "he said \"hi\\there\"\nline2"
	s := New()
	s.CounterFunc("esc_total", "", count(3), L("msg", hairy))
	var buf bytes.Buffer
	if err := s.Gather().WritePrometheus(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	snap, err := ParsePrometheus(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := snap.Family("esc_total")
	if f == nil || len(f.Series) != 1 {
		t.Fatalf("family missing: %+v", f)
	}
	if got := f.Series[0].Label("msg"); got != hairy {
		t.Errorf("label round trip: got %q, want %q", got, hairy)
	}
	if f.Series[0].Value != 3 {
		t.Errorf("value: got %v, want 3", f.Series[0].Value)
	}

	// And hand-written exposition escapes (not via our writer).
	text := "weird{a=\"back\\\\slash\",b=\"new\\nline\",c=\"qu\\\"ote\"} 1\n"
	snap, err = ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse hand-written: %v", err)
	}
	se := snap.Family("weird").Series[0]
	for k, want := range map[string]string{"a": `back\slash`, "b": "new\nline", "c": `qu"ote`} {
		if got := se.Label(k); got != want {
			t.Errorf("label %s: got %q, want %q", k, got, want)
		}
	}
}

// TestParsePrometheusSpecialValues: NaN and ±Inf samples parse as their
// IEEE values rather than erroring out the whole scrape.
func TestParsePrometheusSpecialValues(t *testing.T) {
	text := strings.Join([]string{
		"ratio_nan NaN",
		"ceiling_inf +Inf",
		"floor_inf -Inf",
	}, "\n")
	snap, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if v := snap.Family("ratio_nan").Series[0].Value; !math.IsNaN(v) {
		t.Errorf("NaN sample: got %v", v)
	}
	if v := snap.Family("ceiling_inf").Series[0].Value; !math.IsInf(v, 1) {
		t.Errorf("+Inf sample: got %v", v)
	}
	if v := snap.Family("floor_inf").Series[0].Value; !math.IsInf(v, -1) {
		t.Errorf("-Inf sample: got %v", v)
	}
}

// TestParsePrometheusDuplicateFamily: repeated TYPE/HELP declarations and
// interleaved samples for one family fold into a single family, summing
// same-signature series.
func TestParsePrometheusDuplicateFamily(t *testing.T) {
	text := strings.Join([]string{
		"# TYPE dup_total counter",
		"dup_total{shard=\"a\"} 2",
		"# TYPE other_total counter",
		"other_total 1",
		"# HELP dup_total counted twice",
		"# TYPE dup_total counter",
		"dup_total{shard=\"a\"} 3",
		"dup_total{shard=\"b\"} 5",
	}, "\n")
	snap, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := snap.Family("dup_total")
	if f == nil {
		t.Fatal("dup_total family missing")
	}
	if f.Help != "counted twice" {
		t.Errorf("help: got %q", f.Help)
	}
	if len(f.Series) != 2 {
		t.Fatalf("series count: got %d, want 2 (%+v)", len(f.Series), f.Series)
	}
	if v := snap.Total("dup_total"); v != 10 {
		t.Errorf("folded total: got %v, want 10", v)
	}
	seen := 0
	for _, fam := range snap.Families {
		if fam.Name == "dup_total" {
			seen++
		}
	}
	if seen != 1 {
		t.Errorf("dup_total appears %d times in snapshot, want 1", seen)
	}
}
