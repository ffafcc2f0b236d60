package telemetry

import (
	"math"
	"sort"
)

// QuantileHistogram is a log-bucketed HDR-style distribution: samples land
// in geometrically spaced buckets (qhSubBuckets per power of two), so any
// quantile is recoverable to ~1% relative error from a fixed-size count
// array. Observe is allocation-free and unsynchronised: a histogram has one
// writer, and one written from several goroutines (HTTP handlers) sits
// behind its owner's mutex, which the owner's QuantileFunc source also takes
// to merge it at gather.
//
// The covered range is [qhMinValue, qhMaxValue] (2^-30 .. 2^34, i.e. ~1ns
// to ~4.7h when the unit is seconds); samples outside clamp to the edge
// buckets, so Count and Sum stay exact even when a quantile saturates.
type QuantileHistogram struct {
	counts [qhBuckets]uint64
	sum    float64
	total  uint64
}

const (
	// qhSubBuckets is the bucket resolution per octave. 32 sub-buckets give
	// a bucket width ratio of 2^(1/32) ≈ 1.0219; reporting the geometric
	// bucket midpoint bounds the relative quantile error at
	// sqrt(2^(1/32))-1 ≈ 1.09%.
	qhSubBuckets = 32
	qhMinExp     = -30
	qhMaxExp     = 34
	qhBuckets    = (qhMaxExp - qhMinExp) * qhSubBuckets
)

// qhIndex maps a sample to its bucket. Bucket i covers the half-open
// interval (upper(i-1), upper(i)] with upper(i) = 2^(qhMinExp+(i+1)/S).
func qhIndex(v float64) int {
	if !(v > 0) || math.IsNaN(v) { // zero, negative, NaN: underflow bucket
		return 0
	}
	i := int(math.Ceil(math.Log2(v)*qhSubBuckets)) - 1 - qhMinExp*qhSubBuckets
	if i < 0 {
		i = 0
	}
	if i >= qhBuckets {
		i = qhBuckets - 1
	}
	// The Log2/Pow round trip can be off by an ulp at bucket boundaries;
	// nudge so the half-open (lower, upper] contract holds exactly.
	if i > 0 && v <= qhUpper(i-1) {
		i--
	}
	if i < qhBuckets-1 && v > qhUpper(i) {
		i++
	}
	return i
}

// qhUpper is bucket i's inclusive upper bound.
func qhUpper(i int) float64 {
	return math.Pow(2, float64(qhMinExp)+float64(i+1)/qhSubBuckets)
}

// qhMid is bucket i's representative value: the geometric midpoint, which
// halves the worst-case relative error versus reporting a bound.
func qhMid(i int) float64 {
	return math.Pow(2, float64(qhMinExp)+(float64(i)+0.5)/qhSubBuckets)
}

// Observe records one sample. No-op on a nil receiver.
func (q *QuantileHistogram) Observe(v float64) {
	if q == nil {
		return
	}
	q.counts[qhIndex(v)]++
	q.sum += v
	q.total++
}

// Count returns the number of recorded samples.
func (q *QuantileHistogram) Count() uint64 {
	if q == nil {
		return 0
	}
	return q.total
}

// Sum returns the exact sum of recorded samples.
func (q *QuantileHistogram) Sum() float64 {
	if q == nil {
		return 0
	}
	return q.sum
}

// Quantile returns the nearest-rank p-quantile (p in [0,1]) as the
// containing bucket's geometric midpoint, or 0 when empty.
func (q *QuantileHistogram) Quantile(p float64) float64 {
	if q == nil || q.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(q.total)))
	if rank < 1 {
		rank = 1
	}
	if rank > q.total {
		rank = q.total
	}
	var cum uint64
	for i, c := range q.counts {
		cum += c
		if cum >= rank {
			return qhMid(i)
		}
	}
	return qhMid(qhBuckets - 1)
}

// Merge adds other's samples to q (how gather combines a series' sources).
func (q *QuantileHistogram) Merge(other *QuantileHistogram) {
	if q == nil || other == nil {
		return
	}
	for i, c := range other.counts {
		q.counts[i] += c
	}
	q.sum += other.sum
	q.total += other.total
}

// Centroid is one occupied log-bucket in a snapshot: the bucket's
// representative value and its sample count. Centroids are the mergeable
// wire form of a QuantileHistogram — same-layout producers emit identical V
// values, so MergeSnapshots folds them by exact key union.
type Centroid struct {
	V float64 `json:"v"`
	N uint64  `json:"n"`
}

// QuantilePoint is one precomputed quantile of a summary series.
type QuantilePoint struct {
	Q float64 `json:"q"`
	V float64 `json:"v"`
}

// qhQuantilePoints are the quantiles gather precomputes into every summary
// series (and WritePrometheus exposes).
var qhQuantilePoints = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// centroids returns the occupied buckets in ascending value order.
func (q *QuantileHistogram) centroids() []Centroid {
	if q == nil || q.total == 0 {
		return nil
	}
	var out []Centroid
	for i, c := range q.counts {
		if c > 0 {
			out = append(out, Centroid{V: qhMid(i), N: c})
		}
	}
	return out
}

// quantileFromCentroids computes the nearest-rank p-quantile over sorted
// centroids.
func quantileFromCentroids(cs []Centroid, p float64) float64 {
	var total uint64
	for _, c := range cs {
		total += c.N
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for _, c := range cs {
		cum += c.N
		if cum >= rank {
			return c.V
		}
	}
	return cs[len(cs)-1].V
}

// mergeCentroids unions two centroid sets by exact value key.
func mergeCentroids(a, b []Centroid) []Centroid {
	m := make(map[float64]uint64, len(a)+len(b))
	for _, c := range a {
		m[c.V] += c.N
	}
	for _, c := range b {
		m[c.V] += c.N
	}
	out := make([]Centroid, 0, len(m))
	for v, n := range m {
		out = append(out, Centroid{V: v, N: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].V < out[j].V })
	return out
}
