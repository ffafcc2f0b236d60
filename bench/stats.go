package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the p-quantile of xs, interpolating linearly between the
// two closest ranks. xs need not be sorted; an empty xs gives 0.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile picks the highest of p75, p90, p95, p99 and p99.9 that
// leaves at least ten of n samples beyond it, so a reported tail is never
// one or two outliers. p75 serves runs of fewer than 100 operations, such
// as a traced loop run, whose traced loops also run R1. ok is false when n
// is too small for even p75.
func tailQuantile(n int) (p float64, ok bool) {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// quartiles returns the first quartile, median and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so the spread the benchmark reports is the one its acceptance
// check recomputes. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probeRing is one random cycle through 4 MiB of indices, more than a
// core's own caches hold. Following it waits on the shared last-level
// cache at nearly every step, which co-tenants contend for: the walk's
// time moved with loop-txn's loop over 200 s on the reference host
// (correlation 0.87, against 0.81 for hashing 8 MiB with SHA-256).
var probeRing = sync.OnceValue(func() []int32 {
	ring := make([]int32, 1<<20)
	for i := range ring {
		ring[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(ring) - 1; i > 0; i-- { // Sattolo's shuffle: a single cycle
		j := rng.Intn(i)
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring
})

// probeEnd keeps the compiler from dropping the probe's walk; tests probe
// from parallel runs, hence the atomic.
var probeEnd atomic.Int32

// hostProbe walks once around probeRing five times and returns the median
// in milliseconds. The parent process runs it before each repetition, so
// a results file shows how fast the host was when its numbers were taken
// without the probe's memory counting in a repetition's peak RSS.
func hostProbe() float64 {
	ring := probeRing()
	var runs []float64
	for range 5 {
		t0 := time.Now()
		j := int32(0)
		for range ring {
			j = ring[j]
		}
		runs = append(runs, ms(time.Since(t0)))
		probeEnd.Store(j)
	}
	return median(runs)
}
