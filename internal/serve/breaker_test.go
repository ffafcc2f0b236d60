package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"vidi/internal/core"
)

func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	b := &Breaker{Threshold: 3, Cooldown: time.Second, now: func() time.Time { return now }}

	if err := b.Allow(); err != nil {
		t.Fatalf("fresh breaker refused: %v", err)
	}
	b.Failure()
	b.Failure()
	if b.State() != 0 {
		t.Fatal("breaker opened below threshold")
	}
	b.Failure()
	if b.State() != 1 {
		t.Fatal("breaker not open at threshold")
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker admitted a write: %v", err)
	}

	// Cooldown elapses: exactly one probe is admitted (half-open).
	now = now.Add(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe refused after cooldown: %v", err)
	}
	if b.State() != 0.5 {
		t.Fatal("breaker not half-open during probe")
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("second concurrent probe admitted")
	}

	// Probe fails: snap back open immediately, full cooldown again.
	b.Failure()
	if b.State() != 1 {
		t.Fatal("failed probe did not re-open the breaker")
	}
	now = now.Add(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	b.Success()
	if b.State() != 0 {
		t.Fatal("successful probe did not close the breaker")
	}
	// A success resets the consecutive-failure count.
	b.Failure()
	b.Failure()
	if b.State() != 0 {
		t.Fatal("failure count survived a success")
	}
}

func TestRetrierJitterDeterminism(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		r := newRetrier(seed, 3, 2*time.Millisecond, &Breaker{})
		var delays []time.Duration
		r.sleep = func(_ context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		}
		_ = r.do(context.Background(), "op", func() error { return errors.New("always") })
		return delays
	}
	a, b, c := schedule(7), schedule(7), schedule(8)
	if len(a) != 3 {
		t.Fatalf("expected 3 backoff sleeps, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different schedules: %v vs %v", a, b)
		}
		base := 2 * time.Millisecond << uint(i)
		if a[i] < base || a[i] >= base+2*time.Millisecond {
			t.Fatalf("delay %d = %v outside [%v, %v)", i, a[i], base, base+2*time.Millisecond)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter (retries would synchronize)")
	}
}

func TestRetrierContextCancel(t *testing.T) {
	br := &Breaker{Threshold: 100}
	r := newRetrier(1, 5, time.Millisecond, br)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := r.do(ctx, "op", func() error {
		calls++
		cancel() // cancel mid-operation; the retry loop must stop
		return errors.New("fail")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation did not surface the ctx error: %v", err)
	}
	if calls != 1 {
		t.Fatalf("retries continued after cancellation: %d calls", calls)
	}
	// A ctx abort is not a store failure: the breaker stays untouched.
	if br.State() != 0 {
		t.Fatal("ctx cancellation counted as a breaker failure")
	}
}

func TestRetrierEscalation(t *testing.T) {
	br := &Breaker{Threshold: 1, Cooldown: time.Hour}
	r := newRetrier(1, 2, time.Microsecond, br)
	err := r.do(context.Background(), "segment write", func() error { return errors.New("disk gone") })
	if !errors.Is(err, core.ErrStoreFault) {
		t.Fatalf("exhausted retrier does not wrap core.ErrStoreFault: %v", err)
	}
	var sfe *StoreFaultError
	if !errors.As(err, &sfe) || sfe.Attempts != 3 || sfe.Op != "segment write" {
		t.Fatalf("typed error wrong: %+v", sfe)
	}
	// Breaker opened (threshold 1); next call sheds without attempting.
	calls := 0
	err = r.do(context.Background(), "open write", func() error { calls++; return nil })
	if !errors.Is(err, ErrBreakerOpen) || calls != 0 {
		t.Fatalf("open breaker did not shed (calls=%d): %v", calls, err)
	}
}
