package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Spans of one operation share Op; Parent links
// a call to the operation (or call) that caused it.
type span struct {
	Name   string
	ID     int
	Parent int // 0 for a root span
	Op     string
	Lane   int // the client or goroutine that made the call
	Start  time.Time
	End    time.Time
}

// tracer keeps spans in memory until the repetition ends. A nil tracer
// records nothing, which is how untraced runs measure without it.
type tracer struct {
	mu    sync.Mutex
	next  int
	spans []span
}

// id reserves a span id, so a parent can be named by its children before
// the parent itself ends.
func (t *tracer) id() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under an id from t.id.
func (t *tracer) record(id, parent int, name, op string, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Lane: lane, Start: start, End: end})
	t.mu.Unlock()
}

// call records a leaf span and returns its end time.
func (t *tracer) call(parent int, name, op string, lane int, start time.Time) time.Time {
	end := time.Now()
	t.record(t.id(), parent, name, op, lane, start, end)
	return end
}

// selfTimes returns each span's self time in milliseconds: its duration
// minus the part of that interval its children cover.
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		covered := time.Duration(0)
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
		cur := s.Start // end of the covered prefix so far
		for _, c := range cs {
			from, to := c.Start, c.End
			if from.Before(cur) {
				from = cur
			}
			if to.After(s.End) {
				to = s.End
			}
			if to.After(from) {
				covered += to.Sub(from)
				cur = to
			}
		}
		out[s.ID] = ms(s.End.Sub(s.Start) - covered)
	}
	return out
}

// writeChrome writes spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto). Timestamps are microseconds from epoch.
func writeChrome(w io.Writer, spans []span, epoch time.Time, pid int) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		cat, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{
			Name: s.Name, Cat: cat, Ph: "X",
			TS: us(s.Start.Sub(epoch)), Dur: us(s.End.Sub(s.Start)),
			PID: pid, TID: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
