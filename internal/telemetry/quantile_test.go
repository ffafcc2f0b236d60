package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// relErr is the relative error of est against a nonzero exact value.
func relErr(est, exact float64) float64 {
	return math.Abs(est-exact) / math.Abs(exact)
}

// exactQuantile is the nearest-rank quantile of a sorted sample set: the
// ground truth the log-bucketed estimate is checked against.
func exactQuantile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func TestQuantileAccuracyUniform(t *testing.T) {
	q := &QuantileHistogram{}
	const n = 200000
	samples := make([]float64, 0, n)
	for i := 1; i <= n; i++ {
		v := float64(i) * 1e-4 // 0.0001 .. 20, a 5-decade spread
		q.Observe(v)
		samples = append(samples, v)
	}
	if q.Count() != n {
		t.Fatalf("Count = %d, want %d", q.Count(), n)
	}
	wantSum := float64(n) * (1 + n) / 2 * 1e-4
	if relErr(q.Sum(), wantSum) > 1e-9 {
		t.Fatalf("Sum = %g, want %g", q.Sum(), wantSum)
	}
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999} {
		exact := exactQuantile(samples, p)
		got := q.Quantile(p)
		if e := relErr(got, exact); e > 0.02 {
			t.Errorf("p=%v: quantile %g vs exact %g, rel err %.4f > 2%%", p, got, exact, e)
		}
	}
}

func TestQuantileAccuracyLogNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	q := &QuantileHistogram{}
	const n = 100000
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// Latency-shaped: median ~5ms with a heavy tail.
		v := math.Exp(-5.3 + 0.8*rng.NormFloat64())
		q.Observe(v)
		samples = append(samples, v)
	}
	sort.Float64s(samples)
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := exactQuantile(samples, p)
		got := q.Quantile(p)
		if e := relErr(got, exact); e > 0.02 {
			t.Errorf("p=%v: quantile %g vs exact %g, rel err %.4f > 2%%", p, got, exact, e)
		}
	}
}

func TestQuantileMergeEqualsCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b, all := &QuantileHistogram{}, &QuantileHistogram{}, &QuantileHistogram{}
	for i := 0; i < 50000; i++ {
		v := rng.ExpFloat64() * 0.01
		all.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(b)
	// Sum is compared with a tolerance: shard-then-merge accumulates in a
	// different order than one interleaved stream.
	if a.Count() != all.Count() || relErr(a.Sum(), all.Sum()) > 1e-12 {
		t.Fatalf("merge count/sum = %d/%g, want %d/%g", a.Count(), a.Sum(), all.Count(), all.Sum())
	}
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		if a.Quantile(p) != all.Quantile(p) {
			t.Errorf("p=%v: merged %g != combined %g", p, a.Quantile(p), all.Quantile(p))
		}
	}
}

func TestQuantileEdgeSamples(t *testing.T) {
	q := &QuantileHistogram{}
	q.Observe(0)
	q.Observe(-3)
	q.Observe(math.NaN())
	q.Observe(1e300) // far past the covered range: clamps to the top bucket
	if q.Count() != 4 {
		t.Fatalf("Count = %d, want 4", q.Count())
	}
	if v := q.Quantile(1); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("clamped max quantile not finite: %g", v)
	}
	if v := q.Quantile(0); v > 1e-8 {
		t.Fatalf("underflow quantile %g, want tiny", v)
	}
	var nilQ *QuantileHistogram
	nilQ.Observe(1)
	nilQ.Merge(q)
	if nilQ.Quantile(0.5) != 0 || nilQ.Count() != 0 || nilQ.Sum() != 0 {
		t.Fatal("nil QuantileHistogram must be inert")
	}
	var nilSink *Sink
	if nilSink.Quantile("x", "") != nil {
		t.Fatal("nil sink must return a nil quantile instrument")
	}
}

// TestQuantileSnapshotRoundTrip exercises the full exchange path: two sinks
// gather summary series, the snapshots merge by centroid union, and both
// JSON and Prometheus encodings survive a round trip.
func TestQuantileSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mkSink := func() (*Sink, *QuantileHistogram) {
		s := New()
		q := s.Quantile("req_duration_seconds", "request latency", L("endpoint", "commit"))
		return s, q
	}
	s1, q1 := mkSink()
	s2, q2 := mkSink()
	ref := &QuantileHistogram{}
	for i := 0; i < 20000; i++ {
		v := rng.ExpFloat64() * 0.002
		ref.Observe(v)
		if i%3 == 0 {
			q1.Observe(v)
		} else {
			q2.Observe(v)
		}
	}
	snap1, snap2 := s1.Gather(), s2.Gather()

	merged, err := MergeSnapshots(snap1, snap2)
	if err != nil {
		t.Fatalf("MergeSnapshots: %v", err)
	}
	f := merged.Family("req_duration_seconds")
	if f == nil || f.Kind != "summary" || len(f.Series) != 1 {
		t.Fatalf("merged summary family malformed: %+v", f)
	}
	se := f.Series[0]
	if se.Count != ref.Count() {
		t.Fatalf("merged count %d, want %d", se.Count, ref.Count())
	}
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		if got, want := se.QuantileValue(p), ref.Quantile(p); got != want {
			t.Errorf("merged p=%v: %g, want %g", p, got, want)
		}
	}

	// JSON round trip preserves centroids exactly.
	var buf bytes.Buffer
	if err := merged.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	bse := back.Family("req_duration_seconds").Series[0]
	if len(bse.Centroids) != len(se.Centroids) {
		t.Fatalf("JSON round trip lost centroids: %d vs %d", len(bse.Centroids), len(se.Centroids))
	}
	if got, want := bse.QuantileValue(0.99), se.QuantileValue(0.99); got != want {
		t.Fatalf("JSON round trip p99 %g, want %g", got, want)
	}

	// Prometheus round trip preserves the precomputed quantile points,
	// sum and count (the exposition carries no centroids).
	buf.Reset()
	if err := merged.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	parsed, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("ParsePrometheus: %v", err)
	}
	pf := parsed.Family("req_duration_seconds")
	if pf == nil || pf.Kind != "summary" {
		t.Fatalf("parsed summary family malformed: %+v", pf)
	}
	pse := pf.Series[0]
	if pse.Count != se.Count || pse.Sum != se.Sum {
		t.Fatalf("parsed sum/count %g/%d, want %g/%d", pse.Sum, pse.Count, se.Sum, se.Count)
	}
	if len(pse.Quantiles) != len(qhQuantilePoints) {
		t.Fatalf("parsed %d quantile points, want %d", len(pse.Quantiles), len(qhQuantilePoints))
	}
	if got, want := pse.QuantileValue(0.999), se.QuantileValue(0.999); got != want {
		t.Fatalf("parsed p99.9 %g, want %g", got, want)
	}
	if pse.Label("endpoint") != "commit" {
		t.Fatalf("parsed labels %v, want endpoint=commit", pse.Labels)
	}
}

// TestQuantileShardFold: several sources of one series merge into one
// distribution at gather, as counter sources sum.
func TestQuantileShardFold(t *testing.T) {
	s := New()
	qa := s.Quantile("fold_check", "")
	qb := s.Quantile("fold_check", "")
	for i := 1; i <= 100; i++ {
		qa.Observe(float64(i))
		qb.Observe(float64(i))
	}
	snap := s.Gather()
	se := snap.Family("fold_check").Series[0]
	if se.Count != 200 {
		t.Fatalf("folded count %d, want 200", se.Count)
	}
	if got := se.QuantileValue(0.5); relErr(got, 50) > 0.02 {
		t.Fatalf("folded median %g, want ~50", got)
	}
}

func TestQuantileIndexBounds(t *testing.T) {
	// Every bucket's representative must lie within its bounds, and
	// boundary values must land in the bucket whose upper bound they equal.
	for _, i := range []int{0, 1, qhSubBuckets - 1, qhSubBuckets, qhBuckets / 2, qhBuckets - 2, qhBuckets - 1} {
		up := qhUpper(i)
		if got := qhIndex(up); got != i {
			t.Errorf("qhIndex(upper(%d)) = %d, want %d", i, got, i)
		}
		mid := qhMid(i)
		if got := qhIndex(mid); got != i {
			t.Errorf("qhIndex(mid(%d)) = %d, want %d", i, got, i)
		}
	}
}
