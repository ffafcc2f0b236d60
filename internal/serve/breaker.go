// Package serve is Vidi's multi-tenant record/replay service: an HTTP
// surface where tenants open recording sessions, stream CRC/sequenced
// storage frames into a crash-safe, content-addressed trace store, and
// request replay/compare/diagnose jobs executed by a bounded worker pool.
//
// The package is engineered to the PR 1 contract — *degrade, never
// corrupt*: every write is appended to the run's log and fsync'd before it
// counts, every read is verified against the manifest's integrity hashes, a
// restart replays each run's log and quarantines torn or damaged artifacts
// instead of serving them, and the store write path retries with seeded
// jitter behind a circuit breaker that escalates to a typed error wrapping
// core.ErrStoreFault. The chaos harness in this package arms
// internal/fault plans against a live server — including a kill-and-
// restart mid-session — and asserts zero corrupted manifests and zero
// silent divergences.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"vidi/internal/core"
	"vidi/internal/sim"
)

// ErrBreakerOpen reports a write rejected fast because the store's circuit
// breaker is open: recent writes exhausted their retry budgets, so new
// work is shed until the cooldown probe succeeds.
var ErrBreakerOpen = errors.New("serve: store circuit breaker open")

// StoreFaultError is a store write that survived neither its retries nor
// the circuit breaker. It wraps core.ErrStoreFault — the service escalates
// exactly like the PR 1 simulated store — alongside the underlying cause,
// so both errors.Is(err, core.ErrStoreFault) and cause inspection work.
type StoreFaultError struct {
	// Op names the failed operation ("segment write", "commit write", ...).
	Op string
	// Attempts counts the transfer attempts made (0 when the breaker shed
	// the write without attempting).
	Attempts int
	// Err is the last underlying failure.
	Err error
}

// Error implements error.
func (e *StoreFaultError) Error() string {
	if e.Attempts == 0 {
		return fmt.Sprintf("serve: %s: %v", e.Op, e.Err)
	}
	return fmt.Sprintf("serve: %s: %d attempts exhausted: %v", e.Op, e.Attempts, e.Err)
}

// Unwrap exposes both the PR 1 sentinel and the underlying cause.
func (e *StoreFaultError) Unwrap() []error { return []error{core.ErrStoreFault, e.Err} }

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a consecutive-failure circuit breaker guarding the store
// write path. Threshold consecutive exhausted-retry failures open it; an
// open breaker sheds writes for Cooldown, then admits one probe
// (half-open). A successful probe closes it, a failed one re-opens it.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the breaker.
	// Zero selects 3.
	Threshold int
	// Cooldown is how long an open breaker sheds before probing. Zero
	// selects one second.
	Cooldown time.Duration

	now func() time.Time

	mu       sync.Mutex
	state    int
	fails    int
	openedAt time.Time
}

func (b *Breaker) threshold() int {
	if b.Threshold > 0 {
		return b.Threshold
	}
	return 3
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown > 0 {
		return b.Cooldown
	}
	return time.Second
}

// clock is the breaker's time source (overridable in tests).
//
//lint:detaudit breaker cooldowns are HTTP-service control flow on the host side; recorded traces and replay state never observe them
func (b *Breaker) clock() time.Time {
	if b.now != nil {
		return b.now()
	}
	return time.Now()
}

// Allow reports whether a write may proceed. An open breaker returns
// ErrBreakerOpen until the cooldown elapses, then transitions to half-open
// and admits the caller as the probe.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if b.clock().Sub(b.openedAt) < b.cooldown() {
			return ErrBreakerOpen
		}
		b.state = breakerHalfOpen
		return nil
	case breakerHalfOpen:
		// One probe in flight is enough; shed the rest.
		return ErrBreakerOpen
	}
	return nil
}

// Success records a completed write and closes the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
}

// Failure records an exhausted-retry write failure, opening the breaker at
// the threshold (immediately when half-open: the probe failed).
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == breakerHalfOpen || b.fails >= b.threshold() {
		b.state = breakerOpen
		b.openedAt = b.clock()
	}
}

// State returns the breaker state as a gauge value: 0 closed, 1 open,
// 0.5 half-open.
func (b *Breaker) State() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return 1
	case breakerHalfOpen:
		return 0.5
	}
	return 0
}

// retrier runs store operations with bounded, seed-jittered exponential
// backoff behind a breaker. The jitter RNG is seeded (deterministic under
// test) yet decorrelates concurrent writers enough that retries do not
// synchronize under load — the same discipline as core.Store's
// RetryJitterSeed.
type retrier struct {
	breaker    *Breaker
	maxRetries int
	base       time.Duration
	sleep      func(context.Context, time.Duration) error

	mu  sync.Mutex
	rng *rand.Rand
}

func newRetrier(seed int64, maxRetries int, base time.Duration, breaker *Breaker) *retrier {
	if maxRetries <= 0 {
		maxRetries = 4
	}
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	return &retrier{
		breaker:    breaker,
		maxRetries: maxRetries,
		base:       base,
		rng:        sim.NewRand(seed),
		sleep:      ctxSleep,
	}
}

// ctxSleep sleeps d or returns early with the context's error.
//
//lint:detaudit timer-vs-cancellation race only decides how fast a backoff aborts; no recorded state depends on which case wins
func ctxSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// jitter draws a deterministic delay offset in [0, base).
func (r *retrier) jitter() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.rng.Int63n(int64(r.base)))
}

// do runs fn with retries. Context cancellation aborts between attempts
// (surfacing the ctx error, not a store fault); exhausted retries count a
// breaker failure and escalate to a typed *StoreFaultError.
func (r *retrier) do(ctx context.Context, op string, fn func() error) error {
	if err := r.breaker.Allow(); err != nil {
		return &StoreFaultError{Op: op, Err: err}
	}
	var last error
	for attempt := 0; attempt <= r.maxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			noteRetry(ctx)
			delay := r.base<<uint(attempt-1) + r.jitter()
			if err := r.sleep(ctx, delay); err != nil {
				return err
			}
		}
		if last = fn(); last == nil {
			r.breaker.Success()
			return nil
		}
	}
	r.breaker.Failure()
	return &StoreFaultError{Op: op, Attempts: r.maxRetries + 1, Err: last}
}
