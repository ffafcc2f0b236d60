package core

import (
	"errors"
	"fmt"
	"math/rand"

	"vidi/internal/axi"
	"vidi/internal/sim"
)

// ErrStoreFault is the sentinel for a trace-store transport failure that
// survived the retry budget. The error carried by the simulation is a
// *StoreFaultError wrapping this sentinel.
var ErrStoreFault = errors.New("core: trace store transport fault")

// StoreFaultError reports a permanent trace-store transport failure: the
// link faulted on every one of the store's bounded retries.
type StoreFaultError struct {
	// Cycle is the store-local cycle at which the retry budget ran out.
	Cycle uint64
	// Attempts is the number of consecutive failed transfer attempts.
	Attempts int
}

// Error implements error.
func (e *StoreFaultError) Error() string {
	return fmt.Sprintf("%v: %d consecutive transfer failures, retries exhausted at cycle %d",
		ErrStoreFault, e.Attempts, e.Cycle)
}

// Unwrap keeps errors.Is(err, ErrStoreFault) working.
func (e *StoreFaultError) Unwrap() error { return ErrStoreFault }

// Default retry parameters: a transient fault is retried up to
// DefaultMaxRetries times, with an exponential backoff starting at
// DefaultBackoffCycles and doubling per consecutive failure.
const (
	DefaultMaxRetries    = 8
	DefaultBackoffCycles = 4
)

// Store models Vidi's trace store (§3.3): the component that moves trace
// bytes between the FPGA and external storage (CPU-side DRAM over PCIe DMA
// on the F1 platform) in fixed-size storage-interface packets.
//
// During recording the store drains the encoder's staging buffer at a
// bounded bandwidth; during replay it feeds the decoder at a bounded fetch
// bandwidth. When it shares a link (token bucket) with the application's own
// DMA traffic, the contention is the dominant source of Vidi's recording
// overhead — exactly the effect measured in Table 1 of the paper.
//
// The store is fault-aware: a transient transport fault (FaultFn) fails the
// cycle's transfer and schedules a bounded exponential-backoff retry; once
// MaxRetries consecutive attempts have failed the store escalates to a
// permanent StoreFaultError, which the shim surfaces through a simulation
// checker so the run fails loudly instead of silently wedging.
type Store struct {
	sim.NullEval
	// BytesPerCycle is the store's own maximum throughput per cycle.
	BytesPerCycle int
	// Link optionally models the shared PCIe link; bytes moved through the
	// store also debit this bucket, and a negative balance stalls the
	// store for that cycle.
	Link *axi.TokenBucket

	// FaultFn, when set, simulates the storage transport: it is consulted
	// before each transfer with the store-local cycle and returns false to
	// fail the transfer (fault injection). nil models a perfect link.
	FaultFn func(cycle uint64) bool
	// MaxRetries bounds consecutive failed transfers before escalation.
	// Zero selects DefaultMaxRetries.
	MaxRetries int
	// BackoffCycles is the base retry delay, doubled per consecutive
	// failure (capped). Zero selects DefaultBackoffCycles.
	BackoffCycles int
	// RetryJitterSeed, when non-zero, arms deterministic jitter on the
	// retry backoff: each scheduled retry adds a seed-derived draw in
	// [0, BackoffCycles) so concurrent stores sharing a faulted link do
	// not synchronize their retry bursts, while the same seed reproduces
	// the exact schedule under test. Zero keeps the unjittered schedule
	// (the golden-test configuration).
	RetryJitterSeed int64

	name string

	jitter *rand.Rand // lazily seeded from RetryJitterSeed

	budget int // remaining bytes this cycle

	cycle        uint64 // store-local cycle counter (advanced by Tick)
	backoffUntil uint64 // no transfers before this cycle (retry backoff)
	failStreak   int    // consecutive failed transfer attempts
	permErr      error  // non-nil once the retry budget is exhausted

	tickWake func()

	// StoredBytes counts all trace bytes moved to external storage.
	StoredBytes uint64
	// Retries counts failed transfer attempts that scheduled a retry.
	Retries uint64
	// Stalls counts Accept calls rejected while unavailable (link
	// starvation or retry backoff).
	Stalls uint64
}

// NewStore creates a store with the given drain bandwidth.
func NewStore(bytesPerCycle int, link *axi.TokenBucket) *Store {
	return &Store{name: "trace-store", BytesPerCycle: bytesPerCycle, Link: link}
}

// Name implements sim.Module. An R3 deployment (replay while re-recording)
// owns two stores; the shim renames the replay-side one so module names
// stay unique per simulator.
func (s *Store) Name() string { return s.name }

func (s *Store) maxRetries() int {
	if s.MaxRetries > 0 {
		return s.MaxRetries
	}
	return DefaultMaxRetries
}

func (s *Store) backoffBase() uint64 {
	if s.BackoffCycles > 0 {
		return uint64(s.BackoffCycles)
	}
	return DefaultBackoffCycles
}

// Err reports the store's permanent transport failure, if any.
func (s *Store) Err() error { return s.permErr }

// Accept moves up to n bytes from the encoder (or to the decoder) this
// cycle, honouring the bandwidth budget, the shared link, and the transport
// fault state. It returns the number of bytes actually moved; a transient
// transport fault moves nothing and schedules a backoff retry.
func (s *Store) Accept(n int) int {
	if s.tickWake != nil {
		s.tickWake()
	}
	if s.permErr != nil {
		return 0
	}
	if s.cycle < s.backoffUntil {
		s.Stalls++
		return 0
	}
	if s.Link != nil && !s.Link.Ok() {
		s.Stalls++
		return 0
	}
	if n > s.budget {
		n = s.budget
	}
	if n <= 0 {
		return 0
	}
	if s.FaultFn != nil && !s.FaultFn(s.cycle) {
		s.failStreak++
		if s.failStreak > s.maxRetries() {
			s.permErr = &StoreFaultError{Cycle: s.cycle, Attempts: s.failStreak}
			return 0
		}
		s.Retries++
		// Exponential backoff, capped so a long outage escalates rather
		// than sleeping unboundedly.
		shift := s.failStreak - 1
		if shift > 6 {
			shift = 6
		}
		delay := s.backoffBase() << uint(shift)
		if s.RetryJitterSeed != 0 {
			if s.jitter == nil {
				s.jitter = sim.NewRand(s.RetryJitterSeed)
			}
			delay += uint64(s.jitter.Intn(int(s.backoffBase())))
		}
		s.backoffUntil = s.cycle + delay
		return 0
	}
	s.failStreak = 0
	s.budget -= n
	s.StoredBytes += uint64(n)
	if s.Link != nil {
		s.Link.Spend(n)
	}
	return n
}

// Tick implements sim.Module: it replenishes the per-cycle budget and
// advances the store-local cycle.
func (s *Store) Tick() {
	s.budget = s.BytesPerCycle
	s.cycle++
}

// BindTickWake implements sim.TickWakeable; Accept wakes the store so the
// budget it drew from is replenished on schedule.
func (s *Store) BindTickWake(wake func()) { s.tickWake = wake }

// TickWatch implements sim.TickSensitive.
func (s *Store) TickWatch() []*sim.Channel { return nil }

// TickStable implements sim.TickSensitive. Replenishing an untouched budget
// is idempotent, so an idle store can sleep — except with fault injection,
// where the store-local cycle counter (which drives FaultFn and retry
// backoff) must advance every cycle.
func (s *Store) TickStable() bool { return s.FaultFn == nil }

// storeChecker surfaces a permanent store fault as a simulation error, so a
// dead transport aborts the run with a typed error instead of wedging the
// encoder behind back-pressure until the watchdog guesses "deadlock".
type storeChecker struct {
	s    *Store
	site string
}

// Name implements sim.Checker.
func (c storeChecker) Name() string { return c.site }

// Check implements sim.Checker.
func (c storeChecker) Check() error { return c.s.Err() }
