// Package sim implements a deterministic, cycle-accurate synchronous
// hardware simulation kernel. It is the substrate that stands in for the
// AWS F1 FPGA used by the Vidi paper: designs are expressed as Modules
// connected by Wires, Data buses and VALID/READY handshake Channels, and a
// Simulator advances them one clock cycle at a time.
//
// Each cycle has two phases, mirroring an RTL simulator:
//
//  1. Combinational settle: every module's Eval method runs repeatedly until
//     no wire changes value (a delta-cycle fixpoint). Eval must be
//     idempotent: it derives combinational outputs from registered state and
//     from other wires' current values.
//  2. Clock edge: the simulator latches handshake events (start and end of
//     transactions) on every Channel whose VALID is high, and on those that
//     latched an event last cycle, then calls every module's Tick method, in
//     which modules commit sequential state. During Tick a module
//     may inspect Channel.Fired, Channel.StartedNow and Channel.EndedNow,
//     which reflect the cycle that just completed.
//
// The kernel is fully deterministic: modules are evaluated in registration
// order and all randomness comes from explicitly seeded sources.
package sim

import (
	"errors"
	"fmt"
	"strings"

	"vidi/internal/telemetry"
)

// Module is a hardware block. Eval drives combinational outputs and is run
// to a fixpoint each cycle; Tick commits sequential state at the clock edge.
type Module interface {
	// Name identifies the module in error messages.
	Name() string
	// Eval drives combinational outputs. It may be called several times per
	// cycle and must be idempotent given unchanged inputs.
	Eval()
	// Tick commits sequential state at the clock edge.
	Tick()
}

// Checker is an invariant evaluated after the combinational fixpoint of each
// cycle, before the clock edge. A non-nil return aborts the simulation; it is
// used by protocol checkers.
type Checker interface {
	Name() string
	Check() error
}

// ErrCombLoop is returned when the combinational network does not settle,
// indicating an (illegal) combinational feedback loop.
var ErrCombLoop = errors.New("sim: combinational loop did not settle")

// ErrDeadlock is returned by Run when no channel fires for the configured
// watchdog window while at least one transaction is pending. The error
// returned by Run is a *DeadlockError wrapping this sentinel, so
// errors.Is(err, ErrDeadlock) keeps working while errors.As exposes the
// stuck channels.
var ErrDeadlock = errors.New("sim: deadlock (no handshake progress)")

// StuckChannel names one channel with a transaction in flight when the
// watchdog tripped, and the cycle at which that transaction started.
type StuckChannel struct {
	Name  string
	Since uint64
}

// DeadlockError is the structured watchdog error: it records when progress
// stopped and which channels were holding transactions in flight, giving
// divergence diagnosis a concrete fault site instead of a bare sentinel.
type DeadlockError struct {
	// LastFire is the cycle of the most recent completed handshake.
	LastFire uint64
	// Cycle is the cycle at which the watchdog tripped.
	Cycle uint64
	// Stuck lists the in-flight channels, in channel creation order.
	Stuck []StuckChannel
}

// Error implements error.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: no fire since cycle %d (now %d)", ErrDeadlock, e.LastFire, e.Cycle)
	if len(e.Stuck) > 0 {
		b.WriteString("; in flight:")
		for i, s := range e.Stuck {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " %s (since cycle %d)", s.Name, s.Since)
		}
	}
	return b.String()
}

// Unwrap keeps errors.Is(err, ErrDeadlock) working.
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// Simulator owns the clock, all wires, channels and modules of a design.
type Simulator struct {
	modules  []Module
	wires    []*Wire
	datas    []*Data
	channels []*Channel
	checkers []Checker

	cycle    uint64
	maxIters int

	// legacyChanged is the legacy kernel's global fixpoint flag.
	legacyChanged bool
	// legacy selects the seed fixpoint kernel instead of the sensitivity
	// scheduler; see SetLegacy.
	legacy bool

	// Sensitivity-graph schedule, compiled lazily by Build.
	built bool
	sched *scheduler
	stats Stats

	// Struct-of-arrays signal state, rebuilt by Build: wire values,
	// generation counters, and data-bus bytes, in creation order.
	// Wires and Datas are thin handles pointing into these slabs; the fields
	// only anchor the current slabs against the garbage collector.
	slabBools []bool
	slabGens  []uint64
	slabArena []byte

	// tel, when non-nil, is bound to the schedule at Build time; see
	// SetTelemetry.
	tel *telemetry.Sink

	// Dynamic sensitivity checker (SetSensitivityCheck): probe is non-nil
	// while a schedule built with checking is live.
	sensCheck bool
	probe     *sensProbe

	// Watchdog state: cycle of the most recent channel fire, and a running
	// count of in-flight transactions (maintained at the latch phase).
	lastFire    uint64
	inFlightCnt int
	// WatchdogWindow is the number of consecutive cycles without any
	// handshake completing after which Run reports ErrDeadlock while a
	// transaction is in flight. Zero disables the watchdog.
	WatchdogWindow uint64
}

// New returns an empty simulator.
func New() *Simulator {
	return &Simulator{maxIters: 64, WatchdogWindow: 100000}
}

// Cycle reports the number of completed clock cycles.
func (s *Simulator) Cycle() uint64 { return s.cycle }

// Register adds modules to the simulator. Modules are evaluated and ticked
// in registration order.
func (s *Simulator) Register(ms ...Module) {
	s.modules = append(s.modules, ms...)
	s.invalidate()
}

// AddChecker installs a per-cycle invariant checker.
func (s *Simulator) AddChecker(cs ...Checker) {
	s.checkers = append(s.checkers, cs...)
}

// Step advances the simulation by one clock cycle.
func (s *Simulator) Step() error {
	if !s.built {
		if err := s.Build(); err != nil {
			return err
		}
	}
	// Phase 1: combinational settle.
	if s.sched != nil {
		if err := s.sched.settle(s.cycle, s.maxIters); err != nil {
			return err
		}
	} else if err := s.settleLegacy(); err != nil {
		return err
	}
	// Invariant checks see the settled network.
	for _, c := range s.checkers {
		if err := c.Check(); err != nil {
			return fmt.Errorf("sim: cycle %d: checker %s: %w", s.cycle, c.Name(), err)
		}
	}
	// Phase 2: clock edge. Latch handshake events in channel creation
	// order, then tick modules.
	if sc := s.sched; sc != nil {
		sc.latch()
		sc.tick()
	} else {
		for _, ch := range s.channels {
			s.latch(ch)
		}
		for _, m := range s.modules {
			m.Tick()
		}
	}
	s.cycle++
	return nil
}

// latch latches one channel's handshake events at the clock edge and keeps
// the watchdog's in-flight count and last-fire cycle.
func (s *Simulator) latch(ch *Channel) {
	ch.latch(s.cycle)
	if ch.startedNow {
		s.inFlightCnt++
	}
	if ch.fired {
		s.inFlightCnt--
		s.lastFire = s.cycle
	}
}

// settleLegacy is the seed kernel's combinational phase: run every module's
// Eval in registration order until no signal changes.
func (s *Simulator) settleLegacy() error {
	for iter := 0; ; iter++ {
		s.legacyChanged = false
		for _, m := range s.modules {
			m.Eval()
		}
		s.stats.EvalCalls += uint64(len(s.modules))
		s.stats.SettleWaves++
		if !s.legacyChanged {
			return nil
		}
		if iter >= s.maxIters {
			return fmt.Errorf("%w at cycle %d", ErrCombLoop, s.cycle)
		}
	}
}

// Run steps the simulation until done returns true, the watchdog trips, or
// maxCycles elapse. It returns the number of cycles executed by this call.
//
// Run — and only Run — applies quiescence cycle-batching: after a Step that
// leaves the network provably frozen (see scheduler.quiesce), the clock
// jumps over the dead stretch instead of stepping through it. Step keeps its
// advance-exactly-one-cycle contract, so manual-stepping tests and callers
// are never batched. Skipped cycles are externally invisible: no signal
// changes, so traces and VCD output are byte-identical, checker verdicts and
// the done predicate are constant, and the skip is capped so the watchdog
// still trips — and maxCycles still expires — at exactly the cycle it would
// have unbatched.
func (s *Simulator) Run(maxCycles uint64, done func() bool) (uint64, error) {
	start := s.cycle
	for s.cycle-start < maxCycles {
		if done != nil && done() {
			return s.cycle - start, nil
		}
		if err := s.Step(); err != nil {
			return s.cycle - start, err
		}
		if s.WatchdogWindow > 0 && s.anyInFlight() && s.cycle-s.lastFire > s.WatchdogWindow {
			return s.cycle - start, s.deadlockError()
		}
		// The done re-check matters: this Step may just have finished the
		// run, and batching past that point would inflate the cycle count the
		// caller observes. For a still-unfinished frozen network, done stays
		// false across the whole skipped stretch (it is a pure function of
		// module and channel state, which cannot change while frozen).
		if s.sched != nil && s.sched.batchable && !(done != nil && done()) {
			limit := maxCycles - (s.cycle - start)
			if s.WatchdogWindow > 0 && s.anyInFlight() {
				// Leave enough real Steps for the watchdog to trip at the
				// same cycle as an unbatched run would.
				wd := s.lastFire + s.WatchdogWindow
				if wd <= s.cycle {
					limit = 0
				} else if wd-s.cycle < limit {
					limit = wd - s.cycle
				}
			}
			if k := s.sched.quiesce(s.cycle, limit); k > 0 {
				s.cycle += k
			}
		}
	}
	if done != nil && done() {
		return s.cycle - start, nil
	}
	return s.cycle - start, fmt.Errorf("sim: run did not finish within %d cycles", maxCycles)
}

func (s *Simulator) anyInFlight() bool { return s.inFlightCnt > 0 }

// deadlockError builds the structured watchdog error from the in-flight
// channels.
func (s *Simulator) deadlockError() *DeadlockError {
	e := &DeadlockError{LastFire: s.lastFire, Cycle: s.cycle}
	for _, ch := range s.channels {
		if ch.inFlight {
			e.Stuck = append(e.Stuck, StuckChannel{Name: ch.name, Since: ch.startCycle})
		}
	}
	return e
}

// Channels returns all channels created on this simulator, in creation order.
func (s *Simulator) Channels() []*Channel { return s.channels }
