package serve

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Request tracing: every HTTP request gets an id (accepted from the
// client's X-Vidi-Request-Id header or generated), carried through the
// handler → store write → retrier path in its context, logged on
// completion, and — when the request lands among the N slowest — kept as
// an exemplar with per-stage timings at /v1/slow. Jobs remember the id of
// the request that submitted them, closing the loop from a load-generator
// report line to the server-side view of the same request.

// StageTiming is one named phase of a request's server-side work.
type StageTiming struct {
	Stage string  `json:"stage"`
	MS    float64 `json:"ms"`
}

// reqTrace accumulates one request's identity and timings. It is written
// by the request's own goroutine (handlers and the store calls they make)
// plus, under mu, the retrier; reads happen after the handler returns.
type reqTrace struct {
	id    string
	start time.Time

	mu       sync.Mutex
	endpoint string
	tenant   string
	stages   []StageTiming
	retries  int
}

type reqTraceKey struct{}

func withReqTrace(ctx context.Context, rt *reqTrace) context.Context {
	return context.WithValue(ctx, reqTraceKey{}, rt)
}

func reqTraceFrom(ctx context.Context) *reqTrace {
	rt, _ := ctx.Value(reqTraceKey{}).(*reqTrace)
	return rt
}

func (rt *reqTrace) setEndpoint(name string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.endpoint = name
	rt.mu.Unlock()
}

func (rt *reqTrace) setTenant(t string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.tenant = t
	rt.mu.Unlock()
}

// addStage accumulates elapsed time into the named stage (stages keep
// first-recorded order, so exemplars read as a request timeline).
func (rt *reqTrace) addStage(stage string, d time.Duration) {
	if rt == nil {
		return
	}
	ms := float64(d) / float64(time.Millisecond)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i := range rt.stages {
		if rt.stages[i].Stage == stage {
			rt.stages[i].MS += ms
			return
		}
	}
	rt.stages = append(rt.stages, StageTiming{Stage: stage, MS: ms})
}

func (rt *reqTrace) addRetry() {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.retries++
	rt.mu.Unlock()
}

func (rt *reqTrace) snapshot() (endpoint, tenant string, stages []StageTiming, retries int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.endpoint, rt.tenant, append([]StageTiming(nil), rt.stages...), rt.retries
}

// stageTimer starts timing one named stage of the request in ctx and
// returns the stop function. A ctx without a request trace (job workers,
// the chaos harness calling the store directly) costs one nil check.
//
//lint:detaudit wall-clock here measures observability stage timings only; they are reported, never fed back into request handling or replay state
func stageTimer(ctx context.Context, stage string) func() {
	rt := reqTraceFrom(ctx)
	if rt == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { rt.addStage(stage, time.Since(t0)) }
}

// noteRetry counts one store-layer retry against the request in ctx.
func noteRetry(ctx context.Context) {
	if rt := reqTraceFrom(ctx); rt != nil {
		rt.addRetry()
	}
}

// requestID returns the client-supplied X-Vidi-Request-Id when it is safe
// to echo and log (same charset as tenant labels), or "" for the server to
// generate one.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Vidi-Request-Id")
	if id != "" && validLabel(id) {
		return id
	}
	return ""
}

// SlowRequest is one slow-request exemplar: the completed request's
// identity, outcome and per-stage server-side timings.
type SlowRequest struct {
	RequestID  string        `json:"request_id"`
	Endpoint   string        `json:"endpoint"`
	Tenant     string        `json:"tenant,omitempty"`
	Status     int           `json:"status"`
	Bytes      int64         `json:"bytes"`
	DurationMS float64       `json:"duration_ms"`
	Retries    int           `json:"retries,omitempty"`
	Breaker    float64       `json:"breaker_state"`
	Stages     []StageTiming `json:"stages,omitempty"`

	seq uint64 // completion order, the deterministic tiebreak
}

// slowRing keeps the N slowest completed requests. It is a fixed-capacity
// min-heap-by-scan (N is small): a new request must beat the fastest
// retained exemplar to enter.
type slowRing struct {
	mu   sync.Mutex
	cap  int
	seq  uint64
	reqs []SlowRequest
}

func newSlowRing(capacity int) *slowRing {
	if capacity <= 0 {
		capacity = 32
	}
	return &slowRing{cap: capacity}
}

func (s *slowRing) note(e SlowRequest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	e.seq = s.seq
	if len(s.reqs) < s.cap {
		s.reqs = append(s.reqs, e)
		return
	}
	min := 0
	for i := 1; i < len(s.reqs); i++ {
		if s.reqs[i].DurationMS < s.reqs[min].DurationMS {
			min = i
		}
	}
	if e.DurationMS > s.reqs[min].DurationMS {
		s.reqs[min] = e
	}
}

// list returns the exemplars slowest-first (ties broken by completion
// order so the rendering is stable).
func (s *slowRing) list() []SlowRequest {
	s.mu.Lock()
	out := append([]SlowRequest(nil), s.reqs...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].DurationMS != out[j].DurationMS {
			return out[i].DurationMS > out[j].DurationMS
		}
		return out[i].seq < out[j].seq
	})
	return out
}
