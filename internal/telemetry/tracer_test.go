package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeTrace round-trips the tracer output through encoding/json into the
// schema Perfetto's JSON importer expects.
func decodeTrace(t *testing.T, s *Sink) []map[string]any {
	t.Helper()
	var b bytes.Buffer
	if err := s.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b.String())
	}
	if doc.DisplayTimeUnit != "ms" && doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit %q not accepted by the trace_event spec", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

// TestTraceEventSchema checks every emitted event carries the mandatory
// trace_event fields with the right types, and that the metadata names the
// tracks.
func TestTraceEventSchema(t *testing.T) {
	s := New(WithTracing())
	sched := s.Track("scheduler", "settle")
	axi := s.Track("axi.pcis", "pcis.W")
	sched.Span("busy", 10, 14)
	axi.Span("txn", 12, 12) // zero-length: must widen, not vanish
	axi.Instant("gap", 30)

	events := decodeTrace(t, s)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	var procNames, threadNames, spans, instants int
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event missing numeric pid: %v", ev)
		}
		switch ph {
		case "M":
			name := ev["name"].(string)
			args := ev["args"].(map[string]any)
			if args["name"] == "" {
				t.Fatalf("metadata without a name: %v", ev)
			}
			switch name {
			case "process_name":
				procNames++
			case "thread_name":
				threadNames++
			}
		case "X":
			spans++
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("span missing ts: %v", ev)
			}
			if dur := ev["dur"].(float64); dur < 1 {
				t.Fatalf("span dur %v < 1: %v", dur, ev)
			}
		case "i":
			instants++
			if ev["s"] != "t" {
				t.Fatalf("instant missing thread scope: %v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q: %v", ph, ev)
		}
	}
	if procNames != 2 || threadNames != 2 {
		t.Fatalf("got %d process_name / %d thread_name metadata, want 2/2", procNames, threadNames)
	}
	if spans != 2 || instants != 1 {
		t.Fatalf("got %d spans, %d instants, want 2/1", spans, instants)
	}
}

// TestTraceMonotonicTimestamps records spans out of order across tracks and
// requires the emitted stream to be sorted.
func TestTraceMonotonicTimestamps(t *testing.T) {
	s := New(WithTracing())
	a := s.Track("p", "a")
	b := s.Track("p", "b")
	a.Span("late", 100, 120)
	b.Span("early", 5, 9)
	a.Span("mid", 50, 51)
	b.Instant("first", 1)

	last := -1.0
	for _, ev := range decodeTrace(t, s) {
		if ev["ph"] == "M" {
			continue
		}
		ts := ev["ts"].(float64)
		if ts < last {
			t.Fatalf("timestamps regress: %v after %v", ts, last)
		}
		last = ts
	}
	if last != 100 {
		t.Fatalf("last timestamp %v, want 100", last)
	}
}

// TestTrackIdentity checks track reuse and pid/tid grouping.
func TestTrackIdentity(t *testing.T) {
	s := New(WithTracing())
	a1 := s.Track("proc", "a")
	a2 := s.Track("proc", "a")
	if a1 != a2 {
		t.Fatal("same (process, thread) produced two tracks")
	}
	b := s.Track("proc", "b")
	other := s.Track("other", "a")
	if a1.pid != b.pid {
		t.Fatalf("same process split across pids %d/%d", a1.pid, b.pid)
	}
	if a1.tid == b.tid {
		t.Fatal("distinct threads share a tid")
	}
	if other.pid == a1.pid {
		t.Fatal("distinct processes share a pid")
	}
}

// TestTrackCap verifies the event cap sheds instead of growing without
// bound.
func TestTrackCap(t *testing.T) {
	s := New(WithTracing())
	tk := s.Track("p", "t")
	for i := 0; i < maxTrackEvents+10; i++ {
		tk.Span("x", uint64(i), uint64(i+1))
	}
	if len(tk.events) != maxTrackEvents {
		t.Fatalf("track grew to %d events", len(tk.events))
	}
	if s.tracer.Dropped() != 10 {
		t.Fatalf("dropped %d, want 10", s.tracer.Dropped())
	}
}
