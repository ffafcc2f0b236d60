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
	s.Counter("vidi_events_total", "Events observed.", L("channel", "pcis.W")).Add(41)
	s.Counter("vidi_events_total", "Events observed.", L("channel", "pcis.W")).Inc() // second shard, same series
	s.Counter("vidi_events_total", "Events observed.", L("channel", "irq")).Add(2)
	s.Gauge("vidi_buffer_bytes", "Buffered bytes.").Set(4096)
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
			s.Counter("vidi_x_total", "x", L("channel", ch)).Inc()
			s.Counter("vidi_a_total", "a", L("channel", ch)).Inc()
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
	s.Counter("a:b_c1", "")
	s.Counter("_x", "", L("_k", "v"))
	mustPanic(t, "empty metric name", func() { s.Counter("", "") })
	mustPanic(t, "leading digit", func() { s.Counter("1abc", "") })
	mustPanic(t, "bad rune", func() { s.Counter("vidi-bad", "") })
	mustPanic(t, "colon in label", func() { s.Counter("ok_total", "", L("a:b", "v")) })
	mustPanic(t, "reserved label", func() { s.Counter("ok_total", "", L("__name__", "v")) })
	mustPanic(t, "duplicate label key", func() { s.Counter("ok_total", "", L("k", "1"), L("k", "2")) })
	mustPanic(t, "kind clash", func() {
		s.Counter("clash", "")
		s.Gauge("clash", "")
	})
	mustPanic(t, "summary kind clash", func() {
		s.Quantile("q", "")
		s.Counter("q", "")
	})
}

// TestNilSinkIsFree exercises every instrument through a nil sink: nothing
// may panic and nothing may be recorded.
func TestNilSinkIsFree(t *testing.T) {
	var s *Sink
	s.Counter("vidi_c_total", "c").Inc()
	s.Counter("vidi_c_total", "c").Add(7)
	s.Gauge("vidi_g", "g").Set(3)
	s.Gauge("vidi_g", "g").Add(1)
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
	s.Counter("vidi_events_total", "e", L("channel", "ocl.AW")).Add(9)
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
		s.Counter("vidi_events_total", "e").Add(n)
		s.Counter("vidi_shared_total", "s").Add(1)
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
	d1.Counter("dup_total", "").Add(1)
	d2 := New()
	d2.Counter("dup_total", "").Add(2)
	m2, err := MergeSnapshots(d1.Gather(), d2.Gather())
	if err != nil {
		t.Fatal(err)
	}
	if m2.Total("dup_total") != 3 {
		t.Fatalf("identical series did not fold: %v", m2.Total("dup_total"))
	}
}

// TestOnGatherFold verifies the scrape-time fold path components use to
// avoid hot-path instrumentation.
func TestOnGatherFold(t *testing.T) {
	s := New()
	c := s.Counter("vidi_folded_total", "f")
	private := uint64(0)
	last := uint64(0)
	s.OnGather(func() {
		c.Add(private - last)
		last = private
	})
	private = 10
	if got := s.Gather().Total("vidi_folded_total"); got != 10 {
		t.Fatalf("first gather %v, want 10", got)
	}
	private = 25
	if got := s.Gather().Total("vidi_folded_total"); got != 25 {
		t.Fatalf("second gather %v, want 25 (delta fold must be idempotent)", got)
	}
}
