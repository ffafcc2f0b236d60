package telemetry

import (
	"fmt"
	"strings"
	"sync"
)

// Kind is a metric family's type.
type Kind uint8

// The three instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindQuantile
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindQuantile:
		return "summary"
	}
	return "untyped"
}

// series is one label combination of a family: the sources that gather
// reads and sums, one slice per kind.
type series struct {
	labels []Label // sorted by key
	counts []func() uint64
	values []func() float64
	dists  []func(into *QuantileHistogram)
}

// family is one metric name: its kind, help and series.
type family struct {
	name   string
	help   string
	kind   Kind
	series map[string]*series
}

// Registry holds metric families. Registration and gather both take mu, so
// a source is read only under mu: gathers never overlap each other, and a
// source read from several goroutines needs only its own synchronisation.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	flushers []func()
}

// NewRegistry returns an empty registry. Most callers want New (a Sink)
// instead.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind Kind) *family {
	mustValidMetricName(name)
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

func (f *family) at(labels []Label) *series {
	key := labelKey(labels)
	se, ok := f.series[key]
	if !ok {
		se = &series{labels: labels}
		f.series[key] = se
	}
	return se
}

// source runs add on the series (name, labels) under mu, creating the
// family and series on first use.
func (r *Registry) source(name, help string, kind Kind, labels []Label, add func(*series)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	add(r.family(name, help, kind).at(labels))
}

func (r *Registry) flush() {
	r.mu.Lock()
	fs := append([]func(){}, r.flushers...)
	r.mu.Unlock()
	for _, f := range fs {
		f()
	}
}

// labelKey is the canonical series identity for a sorted label set.
func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(0xff)
		b.WriteString(l.Value)
		b.WriteByte(0xfe)
	}
	return b.String()
}

// mustValidMetricName enforces the Prometheus metric name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func mustValidMetricName(name string) {
	if !validName(name, true) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
}

// mustValidLabelKey enforces the Prometheus label name charset
// [a-zA-Z_][a-zA-Z0-9_]* and reserves the __ prefix.
func mustValidLabelKey(key string) {
	if !validName(key, false) || strings.HasPrefix(key, "__") {
		panic(fmt.Sprintf("telemetry: invalid label name %q", key))
	}
}

func validName(s string, allowColon bool) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':' && allowColon:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
