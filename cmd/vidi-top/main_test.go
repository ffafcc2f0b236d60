package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vidi/internal/serve"
	"vidi/internal/sim"
	"vidi/internal/telemetry"
)

func drain(t *testing.T, mode string, rows []row) []string {
	t.Helper()
	prev := sortMode
	sortMode = mode
	defer func() { sortMode = prev }()
	sortRows(rows)
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.key
	}
	return keys
}

// TestSortRowsStableOnTies: equal-valued rows must keep a deterministic
// name order instead of whatever map-iteration order produced them, so
// successive -watch frames don't shuffle ties.
func TestSortRowsStableOnTies(t *testing.T) {
	rows := []row{
		{key: "gamma", cols: []float64{5}},
		{key: "alpha", cols: []float64{5}},
		{key: "beta", cols: []float64{9}},
		{key: "delta", cols: []float64{5}},
	}
	got := drain(t, sortByValue, rows)
	want := []string{"beta", "alpha", "delta", "gamma"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value sort order = %v, want %v", got, want)
		}
	}
}

// TestSortRowsByName: -sort name ignores values entirely.
func TestSortRowsByName(t *testing.T) {
	rows := []row{
		{key: "zeta", cols: []float64{100}},
		{key: "alpha", cols: []float64{1}},
		{key: "mid", cols: []float64{50}},
	}
	got := drain(t, sortByName, rows)
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("name sort order = %v, want %v", got, want)
		}
	}
}

// TestRenderLoadReport: the -load panel renders a report file end to end.
func TestRenderLoadReport(t *testing.T) {
	rep := serve.LoadReport{
		Seed:             42,
		URL:              "http://127.0.0.1:9412",
		Sessions:         48,
		PeakConcurrent:   20,
		DurationMS:       1234,
		Requests:         500,
		RequestsPerSec:   405.2,
		Recorded:         30,
		Replayed:         10,
		Compared:         5,
		Degraded:         3,
		SlowChecked:      8,
		SlowCorrelated:   8,
		CompressionRatio: 2.5,
		Endpoints: []serve.EndpointStats{
			{Endpoint: "commit", Count: 48, P50MS: 4, P99MS: 20},
			{Endpoint: "put_segment", Count: 300, P50MS: 1, P99MS: 9},
		},
		SlowestRequests: []serve.SlowRequest{
			{RequestID: "load-42-17", Endpoint: "put_segment", Status: 200, DurationMS: 35.5},
		},
	}
	data, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "load.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := renderLoad(&sb, path, 10); err != nil {
		t.Fatalf("renderLoad: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"put_segment", "commit", "load-42-17",
		"peak concurrent 20", "correlated 8/8", "compression ratio 2.50",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
	// put_segment has the larger count, so under value order it leads.
	if strings.Index(out, "put_segment") > strings.Index(out, "commit") {
		t.Fatalf("value sort should list put_segment before commit:\n%s", out)
	}

	if err := renderLoad(&sb, filepath.Join(t.TempDir(), "missing.json"), 10); err == nil {
		t.Fatal("renderLoad on a missing file should error")
	}
}

// TestRenderOverviewHeader renders the run overview from a real scheduler
// snapshot: every field of the header must come from a series the scheduler
// exports, so none of them can silently read zero.
func TestRenderOverviewHeader(t *testing.T) {
	s := sim.New()
	sink := telemetry.New()
	s.SetTelemetry(sink)
	ch := s.NewChannel("ch", 4)
	snd := sim.NewSender("snd", ch)
	rcv := sim.NewReceiver("rcv", ch)
	s.Register(snd, rcv)
	snd.Push([]byte{1, 2, 3, 4})
	for i := 0; i < 5; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	renderOverview(&sb, sink.Gather())
	out := sb.String()
	for _, want := range []string{"cycles 5 ", "modules 2 "} {
		if !strings.Contains(out, want) {
			t.Fatalf("overview missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "workers") {
		t.Fatalf("overview still reports a worker count:\n%s", out)
	}
}
