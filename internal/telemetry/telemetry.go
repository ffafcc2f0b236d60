// Package telemetry is Vidi's stdlib-only observability layer: a typed
// metrics registry (counters, gauges, quantile histograms) with
// Prometheus text and JSON snapshot encoders, and a span/event tracer keyed
// to simulation cycles that emits Chrome trace_event JSON loadable in
// Perfetto or chrome://tracing.
//
// # Determinism and cost model
//
// Instrumented code must behave identically whether or not a sink is armed:
// instruments only ever observe, never feed back into simulation. The
// golden regression tests enforce this by comparing recorded trace bytes
// between a nil sink and an active one.
//
// Every series is a list of sources read at gather time. A component keeps
// its counts on fields it already owns and registers a read of each field
// (Sink.CounterFunc, GaugeFunc, QuantileFunc); the hot path only increments
// its own plain fields, with no telemetry call, lock or atomic added. Gather
// reads all sources under the registry's lock and sums each series, so a
// re-gather reports the same totals and concurrent gathers never interleave.
// Simulation state is read after Run returns, which is why `-race` golden
// runs stay byte-identical with telemetry armed; a source shared with other
// goroutines (an HTTP handler's count) brings its own atomic or mutex.
//
// A nil *Sink is fully usable: every registration is a no-op, Quantile
// returns a nil histogram whose Observe is a no-op, and Track returns a nil
// track that swallows spans, so the zero configuration costs one
// predictable branch per call site.
package telemetry

import (
	"fmt"
	"io"
	"sort"
)

// Label is one metric dimension. Keys must match [a-zA-Z_][a-zA-Z0-9_]*.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Sink bundles a metrics registry and an optional cycle tracer behind one
// nil-safe handle that is threaded through the simulator, the record/replay
// core, the shell and the fault layer.
type Sink struct {
	reg    *Registry
	tracer *Tracer
	consts []Label
}

// Option configures a Sink.
type Option func(*Sink)

// WithTracing arms the span tracer; without it Track returns nil and span
// recording costs nothing.
func WithTracing() Option {
	return func(s *Sink) { s.tracer = newTracer() }
}

// WithConstLabels attaches labels to every series registered through the
// sink (e.g. app="sssp" when one process gathers several runs).
func WithConstLabels(labels ...Label) Option {
	return func(s *Sink) { s.consts = append(s.consts, labels...) }
}

// New creates an armed sink.
func New(opts ...Option) *Sink {
	s := &Sink{reg: NewRegistry()}
	for _, o := range opts {
		o(s)
	}
	for _, l := range s.consts {
		mustValidLabelKey(l.Key)
	}
	return s
}

// CounterFunc adds read as a source of the counter series (name, labels).
// Gather calls read under the registry's lock and reports the sum of the
// series' sources, so read returns the component's running total, never a
// delta. No-op on a nil sink.
func (s *Sink) CounterFunc(name, help string, read func() uint64, labels ...Label) {
	if s == nil {
		return
	}
	s.reg.source(name, help, KindCounter, s.withConsts(labels),
		func(se *series) { se.counts = append(se.counts, read) })
}

// GaugeFunc adds read as a source of the gauge series (name, labels); the
// series reports the sum of its sources' current values. No-op on a nil
// sink.
func (s *Sink) GaugeFunc(name, help string, read func() float64, labels ...Label) {
	if s == nil {
		return
	}
	s.reg.source(name, help, KindGauge, s.withConsts(labels),
		func(se *series) { se.values = append(se.values, read) })
}

// QuantileFunc adds read as a source of the log-bucketed quantile histogram
// series (name, labels), exposed as a Prometheus summary. At gather, read
// merges the source's samples into the series' distribution; quantiles come
// out of the merged distribution with ~1% relative error. No-op on a nil
// sink.
func (s *Sink) QuantileFunc(name, help string, read func(into *QuantileHistogram), labels ...Label) {
	if s == nil {
		return
	}
	s.reg.source(name, help, KindQuantile, s.withConsts(labels),
		func(se *series) { se.dists = append(se.dists, read) })
}

// Quantile registers a histogram owned by one writer as a source of the
// series (name, labels) and returns it. Observe on it is not synchronised,
// so it suits a writer that never runs during Gather: the simulation's own
// goroutine. Returns nil on a nil sink.
func (s *Sink) Quantile(name, help string, labels ...Label) *QuantileHistogram {
	if s == nil {
		return nil
	}
	q := &QuantileHistogram{}
	s.QuantileFunc(name, help, func(into *QuantileHistogram) { into.Merge(q) }, labels...)
	return q
}

// Track returns the tracer track for (process, thread), creating it on
// first use. Returns nil when the sink is nil or tracing is not armed, and
// a nil *Track swallows spans for free.
func (s *Sink) Track(process, thread string) *Track {
	if s == nil || s.tracer == nil {
		return nil
	}
	return s.tracer.track(process, thread)
}

// Tracing reports whether span recording is armed.
func (s *Sink) Tracing() bool { return s != nil && s.tracer != nil }

// OnGather registers a callback run at the start of every Gather and
// WriteTrace, before any source is read. Its one use is the scheduler's
// flush of its open busy span onto the trace; metrics are read by the
// sources themselves and need no callback.
func (s *Sink) OnGather(f func()) {
	if s == nil || f == nil {
		return
	}
	s.reg.mu.Lock()
	s.reg.flushers = append(s.reg.flushers, f)
	s.reg.mu.Unlock()
}

// Gather runs the OnGather callbacks, reads every source and returns a
// point-in-time snapshot. Sources that read simulation state must not race
// with a running Step; call it after Run returns.
func (s *Sink) Gather() *Snapshot {
	if s == nil {
		return &Snapshot{}
	}
	s.reg.flush()
	return s.reg.gather()
}

// WriteTrace finalizes open spans and writes the Chrome trace_event JSON
// document. On a nil or trace-less sink it writes an empty, still valid,
// trace.
func (s *Sink) WriteTrace(w io.Writer) error {
	if s == nil || s.tracer == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ns"}`+"\n")
		return err
	}
	s.reg.flush()
	return s.tracer.writeJSON(w)
}

// withConsts merges the sink's const labels in and returns the sorted,
// validated label set.
func (s *Sink) withConsts(labels []Label) []Label {
	out := make([]Label, 0, len(labels)+len(s.consts))
	out = append(out, s.consts...)
	out = append(out, labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	for i, l := range out {
		mustValidLabelKey(l.Key)
		if i > 0 && out[i-1].Key == l.Key {
			panic(fmt.Sprintf("telemetry: duplicate label key %q", l.Key))
		}
	}
	return out
}
