package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the exact exposition output: HELP/TYPE lines,
// label rendering, summary expansion and integral value formatting.
func TestPrometheusGolden(t *testing.T) {
	s := New()
	s.CounterFunc("vidi_events_total", "Events observed.", count(41), L("channel", "pcis.W"))
	s.CounterFunc("vidi_events_total", "Events observed.", count(1), L("channel", "pcis.W")) // second source, same series
	s.CounterFunc("vidi_events_total", "Events observed.", count(2), L("channel", "irq"))
	s.GaugeFunc("vidi_buffer_bytes", "Buffered bytes.", value(4096))
	h := s.Quantile("vidi_latency_cycles", "Latency.")
	// Quantiles report the geometric midpoint of the sample's log bucket:
	// 2^(log2(v) - 1/64) for a power of two v.
	for _, v := range []float64{2, 4, 4, 16} {
		h.Observe(v)
	}

	var b bytes.Buffer
	if err := s.Gather().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP vidi_buffer_bytes Buffered bytes.
# TYPE vidi_buffer_bytes gauge
vidi_buffer_bytes 4096
# HELP vidi_events_total Events observed.
# TYPE vidi_events_total counter
vidi_events_total{channel="irq"} 2
vidi_events_total{channel="pcis.W"} 42
# HELP vidi_latency_cycles Latency.
# TYPE vidi_latency_cycles summary
vidi_latency_cycles{quantile="0.5"} 3.956912052775902
vidi_latency_cycles{quantile="0.9"} 15.827648211103607
vidi_latency_cycles{quantile="0.95"} 15.827648211103607
vidi_latency_cycles{quantile="0.99"} 15.827648211103607
vidi_latency_cycles{quantile="0.999"} 15.827648211103607
vidi_latency_cycles_sum 26
vidi_latency_cycles_count 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestDeterministicOrdering registers series in shuffled order and checks
// the exposition is stable regardless.
func TestDeterministicOrdering(t *testing.T) {
	render := func(order []string) string {
		s := New()
		for _, ch := range order {
			s.CounterFunc("vidi_x_total", "x", count(1), L("channel", ch))
			s.CounterFunc("vidi_a_total", "a", count(1), L("channel", ch))
		}
		var b bytes.Buffer
		if err := s.Gather().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := render([]string{"w", "b", "m", "a"})
	b := render([]string{"a", "m", "b", "w"})
	if a != b {
		t.Errorf("registration order leaked into exposition:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "vidi_a_total") || strings.Index(a, "vidi_a_total") > strings.Index(a, "vidi_x_total") {
		t.Errorf("families not sorted by name:\n%s", a)
	}
}

func mustPanic(t *testing.T, why string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", why)
		}
	}()
	f()
}

// TestNameValidation covers the metric/label charset rules and the
// kind-consistency checks.
func TestNameValidation(t *testing.T) {
	s := New()
	// Valid edge cases must not panic.
	s.CounterFunc("a:b_c1", "", count(0))
	s.CounterFunc("_x", "", count(0), L("_k", "v"))
	mustPanic(t, "empty metric name", func() { s.CounterFunc("", "", count(0)) })
	mustPanic(t, "leading digit", func() { s.CounterFunc("1abc", "", count(0)) })
	mustPanic(t, "bad rune", func() { s.CounterFunc("vidi-bad", "", count(0)) })
	mustPanic(t, "colon in label", func() { s.CounterFunc("ok_total", "", count(0), L("a:b", "v")) })
	mustPanic(t, "reserved label", func() { s.CounterFunc("ok_total", "", count(0), L("__name__", "v")) })
	mustPanic(t, "duplicate label key", func() { s.CounterFunc("ok_total", "", count(0), L("k", "1"), L("k", "2")) })
	mustPanic(t, "kind clash", func() {
		s.CounterFunc("clash", "", count(0))
		s.GaugeFunc("clash", "", value(0))
	})
	mustPanic(t, "summary kind clash", func() {
		s.Quantile("q", "")
		s.CounterFunc("q", "", count(0))
	})
	mustPanic(t, "summary source kind clash", func() {
		s.GaugeFunc("g", "", value(0))
		s.QuantileFunc("g", "", func(*QuantileHistogram) {})
	})
}

// TestNilSinkIsFree exercises every instrument through a nil sink: nothing
// may panic and nothing may be recorded.
func TestNilSinkIsFree(t *testing.T) {
	var s *Sink
	s.CounterFunc("vidi_c_total", "c", func() uint64 { t.Fatal("counter source read on nil sink"); return 0 })
	s.GaugeFunc("vidi_g", "g", func() float64 { t.Fatal("gauge source read on nil sink"); return 0 })
	s.QuantileFunc("vidi_q", "q", func(*QuantileHistogram) { t.Fatal("quantile source read on nil sink") })
	s.Quantile("vidi_q", "q").Observe(2)
	s.Track("p", "t").Span("x", 0, 10)
	s.Track("p", "t").Instant("y", 3)
	s.OnGather(func() { t.Fatal("flusher ran on nil sink") })
	if s.Tracing() {
		t.Fatal("nil sink claims tracing")
	}
	if snap := s.Gather(); len(snap.Families) != 0 {
		t.Fatalf("nil sink gathered %d families", len(snap.Families))
	}
	var b bytes.Buffer
	if err := s.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"traceEvents"`) {
		t.Fatalf("nil sink trace not valid: %s", b.String())
	}
}

// TestSnapshotJSONRoundTrip checks WriteJSON → ReadSnapshot is lossless for
// the fields vidi-top consumes.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := New(WithConstLabels(L("app", "sssp")))
	s.CounterFunc("vidi_events_total", "e", count(9), L("channel", "ocl.AW"))
	s.Quantile("vidi_jitter", "j").Observe(3)
	snap := s.Gather()
	var b bytes.Buffer
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total("vidi_events_total") != 9 {
		t.Fatalf("counter lost in round-trip: %+v", got)
	}
	f := got.Family("vidi_events_total")
	if f == nil || f.Series[0].Label("app") != "sssp" || f.Series[0].Label("channel") != "ocl.AW" {
		t.Fatalf("labels lost in round-trip: %+v", f)
	}
	hf := got.Family("vidi_jitter")
	if hf == nil || hf.Series[0].Count != 1 || hf.Series[0].Sum != 3 || len(hf.Series[0].Centroids) != 1 {
		t.Fatalf("summary lost in round-trip: %+v", hf)
	}
}

// TestMergeSnapshots folds two per-app snapshots into one.
func TestMergeSnapshots(t *testing.T) {
	mk := func(app string, n uint64) *Snapshot {
		s := New(WithConstLabels(L("app", app)))
		s.CounterFunc("vidi_events_total", "e", count(n))
		s.CounterFunc("vidi_shared_total", "s", count(1))
		return s.Gather()
	}
	m, err := MergeSnapshots(mk("a", 3), mk("b", 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Total("vidi_events_total"); got != 7 {
		t.Fatalf("merged total %v, want 7", got)
	}
	f := m.Family("vidi_events_total")
	if len(f.Series) != 2 {
		t.Fatalf("expected per-app series to stay distinct: %+v", f.Series)
	}
	// Same labels on both sides must fold by summation.
	d1 := New()
	d1.CounterFunc("dup_total", "", count(1))
	d2 := New()
	d2.CounterFunc("dup_total", "", count(2))
	m2, err := MergeSnapshots(d1.Gather(), d2.Gather())
	if err != nil {
		t.Fatal(err)
	}
	if m2.Total("dup_total") != 3 {
		t.Fatalf("identical series did not fold: %v", m2.Total("dup_total"))
	}
}

// TestGatherReadsSources: each gather reads the sources' current values
// after the OnGather callbacks ran and sums a series' sources, so
// re-gathering with nothing changed gives the same snapshot, never a double
// count.
func TestGatherReadsSources(t *testing.T) {
	s := New()
	var private uint64
	s.CounterFunc("vidi_read_total", "r", func() uint64 { return private })
	s.GaugeFunc("vidi_depth", "d", func() float64 { return float64(private) / 2 })
	s.GaugeFunc("vidi_depth", "d", value(1.5)) // second source, same series
	private = 10
	if got := s.Gather().Total("vidi_read_total"); got != 10 {
		t.Fatalf("first gather %v, want 10", got)
	}
	if got := s.Gather().Total("vidi_read_total"); got != 10 {
		t.Fatalf("re-gather %v, want 10 (a source is read, never folded twice)", got)
	}
	private = 25
	if got := s.Gather().Total("vidi_depth"); got != 14 {
		t.Fatalf("gauge sources sum to %v, want 12.5+1.5", got)
	}
	s.OnGather(func() { private++ })
	if got := s.Gather().Total("vidi_read_total"); got != 26 {
		t.Fatalf("gather %v, want 26: OnGather callbacks run before sources are read", got)
	}
}

// count and value are constant counter and gauge sources.
func count(n uint64) func() uint64   { return func() uint64 { return n } }
func value(v float64) func() float64 { return func() float64 { return v } }
