package serve

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Limits are the service's admission-control quotas. Zero values select
// the documented defaults; a negative value disables that limit.
type Limits struct {
	// MaxSessionsPerTenant bounds concurrently open recording sessions per
	// tenant (default 4). Exceeding it is the tenant's problem: 429.
	MaxSessionsPerTenant int
	// MaxOpenSessions bounds open sessions across all tenants (default
	// 32). Exceeding it is the server's problem: 503 + Retry-After.
	MaxOpenSessions int
	// MaxRunBytes bounds one run's stored frame bytes (default 256 MiB).
	MaxRunBytes int64
	// MaxSegmentBytes bounds one uploaded segment (default 4 MiB).
	MaxSegmentBytes int
	// MaxQueuedJobs bounds the replay worker pool's backlog (default 64).
	MaxQueuedJobs int
	// Workers sizes the job worker pool (default 2).
	Workers int
	// RequestTimeout is the per-request handling deadline (default 30s).
	RequestTimeout time.Duration
	// JobTimeout bounds one replay/compare/diagnose job (default 2m).
	JobTimeout time.Duration
	// MaxReplayCycles bounds replay simulation per job (default harness's
	// 50M).
	MaxReplayCycles uint64
}

func lim(v, def int) int {
	switch {
	case v > 0:
		return v
	case v < 0:
		return int(^uint(0) >> 1)
	}
	return def
}

func (l Limits) sessionsPerTenant() int { return lim(l.MaxSessionsPerTenant, 4) }
func (l Limits) openSessions() int      { return lim(l.MaxOpenSessions, 32) }
func (l Limits) queuedJobs() int        { return lim(l.MaxQueuedJobs, 64) }
func (l Limits) workers() int           { return lim(l.Workers, 2) }

// readJobs is how many jobs must finish after a finished job's result was
// first returned before the pool may retire it: one full queue.
func (l Limits) readJobs() int { return l.queuedJobs() }

// unreadJobs bounds the finished jobs whose result was never returned:
// 128 full queues per worker, enough that a poller backing off for 3.2 s
// still finds its job at the pool's peak completion rate (DESIGN.md, "Job
// retention").
func (l Limits) unreadJobs() int { return 128 * min(l.queuedJobs(), 1<<16) * min(l.workers(), 1<<16) }

func (l Limits) runBytes() int64 {
	switch {
	case l.MaxRunBytes > 0:
		return l.MaxRunBytes
	case l.MaxRunBytes < 0:
		return int64(^uint64(0) >> 1)
	}
	return 256 << 20
}

func (l Limits) segmentBytes() int {
	return lim(l.MaxSegmentBytes, 4<<20)
}

func (l Limits) requestTimeout() time.Duration {
	if l.RequestTimeout > 0 {
		return l.RequestTimeout
	}
	return 30 * time.Second
}

func (l Limits) jobTimeout() time.Duration {
	if l.JobTimeout > 0 {
		return l.JobTimeout
	}
	return 2 * time.Minute
}

// AdmissionError is a structured quota rejection: Status picks the HTTP
// code (429 when the caller is over its own quota, 503 when the server is
// shedding load) and the body carries Code/Detail so clients can branch
// without parsing prose.
type AdmissionError struct {
	Status     int           `json:"-"`
	Code       string        `json:"code"`
	Detail     string        `json:"detail"`
	RetryAfter time.Duration `json:"-"`
}

// Error implements error.
func (e *AdmissionError) Error() string {
	return fmt.Sprintf("serve: admission: %s: %s", e.Code, e.Detail)
}

// admission tracks open-session quotas. Byte quotas are charged per
// session by the server (it owns the session byte counter).
type admission struct {
	limits Limits

	mu       sync.Mutex
	byTenant map[string]int
	open     int
}

func newAdmission(limits Limits) *admission {
	return &admission{limits: limits, byTenant: map[string]int{}}
}

// acquireSession admits one new session for tenant or explains why not.
func (a *admission) acquireSession(tenant string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.open >= a.limits.openSessions() {
		return &AdmissionError{
			Status:     http.StatusServiceUnavailable,
			Code:       "server_sessions_exhausted",
			Detail:     fmt.Sprintf("server at its open-session limit (%d)", a.limits.openSessions()),
			RetryAfter: 2 * time.Second,
		}
	}
	if a.byTenant[tenant] >= a.limits.sessionsPerTenant() {
		return &AdmissionError{
			Status:     http.StatusTooManyRequests,
			Code:       "tenant_session_quota",
			Detail:     fmt.Sprintf("tenant %q at its open-session quota (%d)", tenant, a.limits.sessionsPerTenant()),
			RetryAfter: time.Second,
		}
	}
	a.open++
	a.byTenant[tenant]++
	return nil
}

// releaseSession returns a session slot.
func (a *admission) releaseSession(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.open > 0 {
		a.open--
	}
	if a.byTenant[tenant] > 0 {
		a.byTenant[tenant]--
		if a.byTenant[tenant] == 0 {
			delete(a.byTenant, tenant)
		}
	}
}

// openSessions reports the current global count (metrics gauge).
func (a *admission) openSessions() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.open
}

// checkSegment admits one uploaded segment against the per-segment and
// per-run byte quotas.
func (a *admission) checkSegment(segBytes int, runBytes int64) error {
	if segBytes > a.limits.segmentBytes() {
		return &AdmissionError{
			Status: http.StatusTooManyRequests,
			Code:   "segment_too_large",
			Detail: fmt.Sprintf("segment of %d bytes exceeds the %d-byte limit", segBytes, a.limits.segmentBytes()),
		}
	}
	if runBytes+int64(segBytes) > a.limits.runBytes() {
		return &AdmissionError{
			Status: http.StatusTooManyRequests,
			Code:   "run_bytes_quota",
			Detail: fmt.Sprintf("run would exceed its %d-byte quota", a.limits.runBytes()),
		}
	}
	return nil
}
