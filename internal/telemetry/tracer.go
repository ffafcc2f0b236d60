package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// maxTrackEvents bounds one track's memory; beyond it spans are counted as
// dropped instead of stored. Transaction-grained instrumentation stays far
// below this for the evaluation workloads.
const maxTrackEvents = 1 << 17

// Tracer records cycle-keyed spans grouped into tracks. One track maps to
// one Perfetto thread lane; tracks sharing a process name share a process
// group. Track registration takes a mutex (setup time); span recording is
// single-writer per track, like the fields that metric sources read.
type Tracer struct {
	mu     sync.Mutex
	pids   map[string]int
	byName map[string]*Track
	tracks []*Track
}

func newTracer() *Tracer {
	return &Tracer{pids: make(map[string]int), byName: make(map[string]*Track)}
}

// Track is one timeline lane. All methods are nil-safe.
type Track struct {
	process string
	thread  string
	pid     int
	tid     int
	events  []traceSpan
	dropped uint64
}

type traceSpan struct {
	name    string
	ts      uint64 // start cycle
	dur     uint64 // 0 = instant event
	instant bool
}

func (t *Tracer) track(process, thread string) *Track {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := process + "\xff" + thread
	if tk, ok := t.byName[key]; ok {
		return tk
	}
	pid, ok := t.pids[process]
	if !ok {
		pid = len(t.pids) + 1
		t.pids[process] = pid
	}
	tid := 1
	for _, tk := range t.tracks {
		if tk.pid == pid {
			tid++
		}
	}
	tk := &Track{process: process, thread: thread, pid: pid, tid: tid}
	t.byName[key] = tk
	t.tracks = append(t.tracks, tk)
	return tk
}

// Span records a complete event covering cycles [start, end). Zero-length
// spans are widened to one cycle so they stay visible. No-op on a nil
// receiver.
func (tk *Track) Span(name string, start, end uint64) {
	if tk == nil {
		return
	}
	if len(tk.events) >= maxTrackEvents {
		tk.dropped++
		return
	}
	dur := uint64(1)
	if end > start {
		dur = end - start
	}
	tk.events = append(tk.events, traceSpan{name: name, ts: start, dur: dur})
}

// Instant records a zero-duration marker at the given cycle. No-op on a nil
// receiver.
func (tk *Track) Instant(name string, cycle uint64) {
	if tk == nil {
		return
	}
	if len(tk.events) >= maxTrackEvents {
		tk.dropped++
		return
	}
	tk.events = append(tk.events, traceSpan{name: name, ts: cycle, instant: true})
}

// Dropped returns the number of spans shed across all tracks once the
// per-track cap was reached.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, tk := range t.tracks {
		n += tk.dropped
	}
	return n
}

// traceEventJSON is one Chrome trace_event entry. ts/dur are in the
// document's time unit; Vidi writes simulation cycles.
type traceEventJSON struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Cat  string            `json:"cat,omitempty"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type traceJSON struct {
	TraceEvents     []traceEventJSON `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

// writeJSON emits the trace document: process/thread naming metadata first,
// then every span sorted by timestamp (ties broken by pid/tid) so the
// stream is monotonic.
func (t *Tracer) writeJSON(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := traceJSON{TraceEvents: []traceEventJSON{}, DisplayTimeUnit: "ns"}
	seenProc := map[int]bool{}
	for _, tk := range t.tracks {
		if !seenProc[tk.pid] {
			seenProc[tk.pid] = true
			doc.TraceEvents = append(doc.TraceEvents, traceEventJSON{
				Name: "process_name", Ph: "M", Pid: tk.pid,
				Args: map[string]string{"name": tk.process},
			})
		}
		doc.TraceEvents = append(doc.TraceEvents, traceEventJSON{
			Name: "thread_name", Ph: "M", Pid: tk.pid, Tid: tk.tid,
			Args: map[string]string{"name": tk.thread},
		})
	}
	var spans []traceEventJSON
	for _, tk := range t.tracks {
		for _, ev := range tk.events {
			e := traceEventJSON{
				Name: ev.name, Ts: ev.ts, Pid: tk.pid, Tid: tk.tid, Cat: tk.process,
			}
			if ev.instant {
				e.Ph, e.S = "i", "t"
			} else {
				e.Ph, e.Dur = "X", ev.dur
			}
			spans = append(spans, e)
		}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Ts != spans[j].Ts {
			return spans[i].Ts < spans[j].Ts
		}
		if spans[i].Pid != spans[j].Pid {
			return spans[i].Pid < spans[j].Pid
		}
		return spans[i].Tid < spans[j].Tid
	})
	doc.TraceEvents = append(doc.TraceEvents, spans...)
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
