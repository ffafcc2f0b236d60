// vidi-load is the open-loop load harness for vidi-serve: sessions arrive
// on a seeded Poisson process and execute tenant workflows (record,
// replay, compare, degraded upload) against a live service — or a
// self-hosted one — while every request carries a deterministic
// X-Vidi-Request-Id. The run emits a JSON report (-out) with
// per-endpoint HDR latency quantiles, throughput, an error budget,
// divergence accounting, and the correlation between the server's
// /v1/slow exemplars and the client's own request records.
//
// Usage:
//
//	vidi-load -sessions 1200 -min-concurrent 1000 -out load.json
//	vidi-load -url http://host:9412 -sessions 500 -rate 200
//
// Exit status is non-zero on session failures, silent divergences, a
// spent error budget, or a peak concurrency under -min-peak — so CI can
// gate on the smoke run directly. Render the report with
// `vidi-top -load load.json`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"vidi/internal/serve"
)

func main() {
	url := flag.String("url", "", "target a live vidi-serve ('' self-hosts one for the run)")
	root := flag.String("root", "", "self-hosted store root ('' = temp dir, removed after)")
	sessions := flag.Int("sessions", 64, "total sessions to run")
	minConcurrent := flag.Int("min-concurrent", 0, "rendezvous barrier: hold sessions until this many are active at once")
	rate := flag.Float64("rate", 500, "mean Poisson arrival rate, sessions/second")
	seed := flag.Int64("seed", 42, "seed for arrivals, mix, and request ids")
	app := flag.String("app", "dma-irq", "recorded workload application")
	scale := flag.Int("scale", 1, "workload scale factor")
	segFrames := flag.Int("segment-frames", 8, "frames per uploaded segment")
	mix := flag.String("mix", "", "session mix weights record/replay/compare/degraded, e.g. 6/2/1/1")
	out := flag.String("out", "", "write the JSON report here ('' = stdout only)")
	minPeak := flag.Int("min-peak", 0, "fail unless peak concurrency reaches this")
	maxErrRatio := flag.Float64("max-error-ratio", 0, "fail when the error budget ratio exceeds this")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "vidi-load:", err)
		os.Exit(1)
	}

	opts := serve.LoadOptions{
		URL:           *url,
		Root:          *root,
		Sessions:      *sessions,
		MinConcurrent: *minConcurrent,
		Rate:          *rate,
		Seed:          *seed,
		App:           *app,
		Scale:         *scale,
		SegmentFrames: *segFrames,
	}
	if *mix != "" {
		m, err := parseMix(*mix)
		if err != nil {
			fail(err)
		}
		opts.Mix = m
	}

	rep, err := serve.RunLoad(context.Background(), opts)
	if err != nil {
		fail(err)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("vidi-load: report written to %s\n", *out)
	} else {
		os.Stdout.Write(data)
	}
	printSummary(rep)

	var failures []string
	if rep.FailedSessions > 0 {
		failures = append(failures, fmt.Sprintf("%d sessions failed", rep.FailedSessions))
	}
	if rep.Divergences > 0 {
		failures = append(failures, fmt.Sprintf("%d silent divergences", rep.Divergences))
	}
	if rep.ErrorRatio > *maxErrRatio {
		failures = append(failures, fmt.Sprintf("error ratio %.4f exceeds %.4f (%d of %d requests)",
			rep.ErrorRatio, *maxErrRatio, rep.ErrorCount, rep.Requests))
	}
	if *minPeak > 0 && rep.PeakConcurrent < *minPeak {
		failures = append(failures, fmt.Sprintf("peak concurrency %d under the %d floor", rep.PeakConcurrent, *minPeak))
	}
	if rep.SlowChecked > 0 && rep.SlowCorrelated == 0 {
		failures = append(failures, "no server slow-request exemplar traced back to a client record")
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("vidi-load: %d sessions ok, peak %d concurrent, %d requests, 0 divergences\n",
		rep.Sessions, rep.PeakConcurrent, rep.Requests)
}

// parseMix reads "record/replay/compare/degraded" weights.
func parseMix(s string) (serve.LoadMix, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 4 {
		return serve.LoadMix{}, fmt.Errorf("mix %q: want four /-separated weights (record/replay/compare/degraded)", s)
	}
	w := make([]int, 4)
	total := 0
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return serve.LoadMix{}, fmt.Errorf("mix %q: bad weight %q", s, p)
		}
		w[i] = n
		total += n
	}
	if total == 0 {
		return serve.LoadMix{}, fmt.Errorf("mix %q: all weights zero", s)
	}
	return serve.LoadMix{Record: w[0], Replay: w[1], Compare: w[2], Degraded: w[3]}, nil
}

// printSummary writes the human-readable digest after the JSON artifact.
func printSummary(rep *serve.LoadReport) {
	fmt.Printf("\n== vidi-load: %d sessions @ seed %d ==\n", rep.Sessions, rep.Seed)
	fmt.Printf("peak concurrent %d  duration %.0fms  %d requests (%.0f/s)  errors %d (%.4f)\n",
		rep.PeakConcurrent, rep.DurationMS, rep.Requests, rep.RequestsPerSec,
		rep.ErrorCount, rep.ErrorRatio)
	fmt.Printf("recorded %d  replayed %d  compared %d  degraded %d  divergences %d  gap frames %d\n",
		rep.Recorded, rep.Replayed, rep.Compared, rep.Degraded, rep.Divergences, rep.GapFrames)
	fmt.Printf("slow exemplars correlated %d/%d  compression ratio %.2f\n\n",
		rep.SlowCorrelated, rep.SlowChecked, rep.CompressionRatio)
	fmt.Printf("%-14s %9s %7s %9s %9s %9s %9s %9s\n",
		"endpoint", "count", "errors", "p50 ms", "p90 ms", "p95 ms", "p99 ms", "p99.9 ms")
	for _, e := range rep.Endpoints {
		fmt.Printf("%-14s %9d %7d %9.2f %9.2f %9.2f %9.2f %9.2f\n",
			e.Endpoint, e.Count, e.Errors, e.P50MS, e.P90MS, e.P95MS, e.P99MS, e.P999MS)
	}
}
