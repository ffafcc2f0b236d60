package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vidi/internal/sim"
)

func TestClassifyEndpoint(t *testing.T) {
	cases := []struct {
		method, path, want string
	}{
		{"POST", "/v1/sessions", "open_session"},
		{"POST", "/v1/sessions/s-1/segments", "put_segment"},
		{"POST", "/v1/sessions/s-1/gap", "mark_gap"},
		{"POST", "/v1/sessions/s-1/commit", "commit"},
		{"DELETE", "/v1/sessions/s-1", "abort"},
		{"GET", "/v1/runs", "list_runs"},
		{"GET", "/v1/runs/run-a", "get_run"},
		{"POST", "/v1/jobs", "submit_job"},
		{"GET", "/v1/jobs", "list_jobs"},
		{"GET", "/v1/jobs/job-1?wait=1", "get_job"},
		{"GET", "/v1/recovery", "recovery"},
		{"GET", "/v1/slow", "slow"},
		{"GET", "/metrics", "metrics"},
		{"GET", "/healthz", "healthz"},
		{"GET", "/nope", "unmatched"},
		{"GET", "/v1/teapots", "unmatched"},
	}
	for _, c := range cases {
		// The transport classifies req.URL.Path, which never carries the
		// query string; strip it the same way for the table's one case.
		path, _, _ := strings.Cut(c.path, "?")
		if got := classifyEndpoint(c.method, path); got != c.want {
			t.Errorf("classify(%s %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
}

// TestRunLoadSmoke: a small self-hosted load run must complete every
// session with zero silent divergences, report per-endpoint quantiles,
// honour the rendezvous floor, and correlate its slowest request ids with
// the server's /v1/slow exemplars.
func TestRunLoadSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	root := t.TempDir()
	rep, err := RunLoad(ctx, LoadOptions{
		Root:          root,
		Sessions:      48,
		MinConcurrent: 16,
		Rate:          2000,
		Seed:          42,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.FailedSessions != 0 {
		t.Fatalf("failed sessions: %d (%v)", rep.FailedSessions, rep.Errors)
	}
	if rep.Divergences != 0 {
		t.Fatalf("silent divergences: %d", rep.Divergences)
	}
	if got := rep.Recorded + rep.Replayed + rep.Compared + rep.Degraded; got != rep.Sessions {
		t.Fatalf("session accounting: %d of %d", got, rep.Sessions)
	}
	if rep.PeakConcurrent < 16 {
		t.Fatalf("peak concurrency %d, want >= 16", rep.PeakConcurrent)
	}
	if rep.Degraded > 0 && rep.GapFrames == 0 {
		t.Fatal("degraded sessions declared no gap frames")
	}
	// The reported ratio is the base run's on-disk one.
	data, err := os.ReadFile(filepath.Join(root, "load-42-base", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base Manifest
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if want := float64(base.Bytes) / float64(base.StoredBytes); base.StoredBytes == 0 || rep.CompressionRatio != want {
		t.Fatalf("compression ratio %v, want the base manifest's %d/%d", rep.CompressionRatio, base.Bytes, base.StoredBytes)
	}
	// Every unique segment is stored as the raw container, its frames
	// behind a 4-byte magic, so nothing on disk is smaller than its frames.
	stored := map[string]uint64{}
	for _, ref := range base.Segments {
		stored[ref.Hash] = uint64(len(segMagicRaw) + ref.Bytes)
	}
	var want uint64
	for _, n := range stored {
		want += n
	}
	if base.StoredBytes != want || rep.CompressionRatio >= 1 {
		t.Fatalf("base run stores %d bytes at ratio %v, want %d raw container bytes at a ratio under 1", base.StoredBytes, rep.CompressionRatio, want)
	}
	if rep.ErrorCount != 0 {
		t.Fatalf("error budget spent: %d of %d requests", rep.ErrorCount, rep.Requests)
	}

	byEp := map[string]EndpointStats{}
	for _, e := range rep.Endpoints {
		byEp[e.Endpoint] = e
	}
	for _, ep := range []string{"open_session", "put_segment", "commit", "submit_job"} {
		e, ok := byEp[ep]
		if !ok || e.Count == 0 {
			t.Fatalf("endpoint %s missing from report: %+v", ep, rep.Endpoints)
		}
		if e.P50MS <= 0 || e.P99MS < e.P50MS {
			t.Fatalf("endpoint %s quantiles inconsistent: %+v", ep, e)
		}
	}
	if rep.SlowChecked == 0 || rep.SlowCorrelated != rep.SlowChecked {
		t.Fatalf("slow-request correlation incomplete: checked %d, correlated %d",
			rep.SlowChecked, rep.SlowCorrelated)
	}
	if len(rep.SlowestRequests) == 0 || rep.SlowestRequests[0].RequestID == "" {
		t.Fatalf("client slowest-request exemplars missing: %+v", rep.SlowestRequests)
	}
	if rep.Requests == 0 || rep.RequestsPerSec <= 0 {
		t.Fatalf("throughput accounting: %d requests, %v/s", rep.Requests, rep.RequestsPerSec)
	}
}

// TestLoadMixDeterministic: the same seed draws the same workload shape.
func TestLoadMixDeterministic(t *testing.T) {
	draw := func() [4]int {
		rng := sim.NewRand(7)
		mix := LoadMix{}.orDefault()
		var got [4]int
		for i := 0; i < 100; i++ {
			switch mix.pick(rng) {
			case LoadRecord:
				got[0]++
			case LoadReplay:
				got[1]++
			case LoadCompare:
				got[2]++
			case LoadDegraded:
				got[3]++
			}
		}
		return got
	}
	a, b := draw(), draw()
	if a != b {
		t.Fatalf("mix draw not deterministic: %v vs %v", a, b)
	}
	if a[0] == 0 || a[1] == 0 {
		t.Fatalf("default mix starved a kind: %v", a)
	}
}
