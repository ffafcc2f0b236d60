package sim

import (
	"errors"
	"fmt"
	"math/bits"

	"vidi/internal/telemetry"
)

// Signal is anything a module can declare in its Sensitivity: a *Wire or a
// *Data. The interface is sealed (sigmeta is unexported) because the
// scheduler owns the per-signal metadata.
type Signal interface {
	Name() string
	sigmeta() *sigcore
}

// Sensitivity is a module's declared combinational footprint: the signals
// its Eval reads and the signals its Eval drives. The scheduler uses Reads
// to decide when a module must be re-evaluated; Drives licenses a module to
// re-read its own outputs and is what the audits below check writes against.
//
// A module whose Eval also depends on registered state (almost all Moore
// machines: senders, FIFOs, AXI engines) should additionally implement
// Stable so quiet cycles can skip its Eval entirely; see EvalTracker.
//
// Declaring too little is a correctness bug (stale outputs, which the golden
// legacy-vs-scheduler tests catch as a trace diff); declaring too much only
// costs performance. Modules that do not implement Sensitive at all get the
// safe ReadsAll fallback: they are re-evaluated on every settle wave in
// which any signal changed, which is exactly the legacy kernel's behaviour.
//
// Audit invariant (enforced by `vidi-lint`'s sensaudit analyzer statically
// and by SetSensitivityCheck at runtime): every Wire/Data read reachable
// from Eval must appear in Reads (or Drives — re-reading a signal only the
// module itself drives cannot miss a wakeup), and every Wire/Data write
// reachable from Eval must appear in Drives. A module whose footprint the
// static analyzer cannot resolve must either declare ReadsAll or carry a
// `//lint:sensaudit <reason>` waiver; ReadsAll modules are reported in
// Stats.ReadsAllModules so conservative fallbacks stay visible.
type Sensitivity struct {
	// ReadsAll marks a module that must be re-evaluated whenever anything
	// in the design changes. It is the conservative fallback.
	ReadsAll bool
	// Reads lists the signals the module's Eval reads.
	Reads []Signal
	// Drives lists the signals the module's Eval writes.
	Drives []Signal
}

// ReadsEverything is the explicit conservative sensitivity: re-evaluate the
// module on every wave in which anything changed.
func ReadsEverything() Sensitivity { return Sensitivity{ReadsAll: true} }

// Sensitive is a Module that declares its combinational footprint. Modules
// that do not implement it are scheduled with the ReadsAll fallback.
type Sensitive interface {
	Module
	Sensitivity() Sensitivity
}

// Stable is an optional extension: a module that can cheaply report whether
// its Eval outputs could have changed since it last settled. When EvalStable
// returns true and none of the module's declared Reads changed, the
// scheduler skips the module's Eval for the cycle. Implementations must be
// conservative: return false whenever registered state feeding Eval may
// have changed.
//
// The scheduler learns about stability transitions through EvalTracker.Touch
// (or through declared-signal changes); it does not poll EvalStable every
// cycle. A module whose stability depends on state outside the Touch
// protocol — e.g. a shared link whose readiness flips when other modules
// spend from it — must additionally implement StablePoll so the scheduler
// keeps consulting EvalStable at the start of every cycle.
type Stable interface {
	EvalStable() bool
}

// StablePoll marks a Stable module whose EvalStable answer can change
// without a Touch or a declared-signal change. NeedsStablePoll is consulted
// once at Build time; when it reports true the scheduler polls the module's
// EvalStable at wave 0 of every cycle (the pre-refactor behaviour for all
// modules). Returning false lets a configuration without the external
// dependency (e.g. no shared link attached) skip the per-cycle poll.
//
// StablePoll gates only *when* Eval re-runs, never *what* it may touch: a
// polled module's Eval is still bound by the audit invariant on Sensitivity
// above — its signal reads and writes must match its declared Reads/Drives,
// and both the sensaudit analyzer and the dynamic checker hold it to that.
type StablePoll interface {
	Stable
	NeedsStablePoll() bool
}

// evalSettled lets the scheduler clear an EvalTracker after running Eval.
// Only types embedding EvalTracker satisfy it.
type evalSettled interface{ settleEval() }

// TickSensitive is an optional Module extension for clock-edge gating: the
// scheduler skips the module's Tick on cycles where nothing it watches
// happened. The legacy kernel calls every Tick every cycle; this contract is
// what lets the sensitivity scheduler beat it on quiet cycles.
//
// A gated module is woken (its next Tick runs) when a transaction starts or
// completes on any channel in TickWatch, or when a collaborator calls the
// wake hook installed via TickWakeable. After each Tick the scheduler asks
// TickStable; returning false keeps the module awake for the next cycle, so
// internal countdowns (gap timers, queued work) never need an external wake.
//
// Implementations must be conservative: TickStable must return false
// whenever the next Tick could observe or mutate anything — and every
// out-of-band mutation path (a queue Push, a callback, a shared counter)
// must either wake the module or be visible to TickStable at the time the
// module last ticked. Declaring too much wakefulness only costs performance;
// declaring too little changes simulated behaviour.
type TickSensitive interface {
	Module
	// TickWatch lists the channels whose handshake events (a transaction
	// starting or completing at the clock edge) require this module's Tick.
	TickWatch() []*Channel
	// TickStable reports that the module's Tick is a no-op until an external
	// event wakes it.
	TickStable() bool
}

// TickWakeable is an optional extension for TickSensitive modules that are
// mutated out-of-band (not through a watched channel): the scheduler installs
// a wake hook at Build time, and the module (or its collaborators) calls it
// whenever state requiring a Tick changes.
type TickWakeable interface {
	BindTickWake(wake func())
}

// NoHorizon is the TickHorizon answer of a module that never needs a tick
// until something external wakes it.
const NoHorizon = ^uint64(0)

// TickHorizon is an optional extension for quiescence cycle-batching: a
// module that can promise "my Ticks are mechanical until cycle H" lets the
// scheduler skip whole stretches of cycles at once instead of stepping
// through them one tick-gated cycle at a time.
//
// TickHorizon(now) returns a cycle H ≥ now such that every Tick the module
// would run in cycles [now, H) has no externally visible effect: it writes
// no signal, pushes no channel, wakes no other module, and its entire state
// evolution over those cycles can be reproduced by a single SkipTicks(n)
// call. Returning now declines the skip; returning NoHorizon places no
// bound. When the scheduler skips k cycles it calls SkipTicks(k) on every
// module whose horizon it consulted, so internal countdowns (a compute
// budget, a refill timer) stay exact.
//
// The scheduler only batches cycles on which the whole network is provably
// frozen — no pending evals, no unstable polled module, every channel idle
// or stalled, and every module that would tick covered by a horizon — so a
// design with even one awake module lacking a horizon simply never batches.
// Modules asleep under tick gating are not consulted and must not have
// their time advanced: a gated module's Tick contract already tolerates
// arbitrary sleep stretches.
type TickHorizon interface {
	Module
	TickHorizon(now uint64) uint64
	SkipTicks(n uint64)
}

// EvalTracker is an embeddable helper implementing Stable: call Touch from
// Tick (or any out-of-band mutator such as a queue Push) whenever registered
// state that feeds Eval changes. The scheduler clears the flag each time it
// runs the module's Eval.
type EvalTracker struct {
	evalDirty bool
	// hook, installed by Build, marks the module pending in the scheduler so
	// wave-0 seeding does not have to poll every module's EvalStable.
	hook func()
}

// Touch marks the module's Eval-visible state as changed.
func (t *EvalTracker) Touch() {
	t.evalDirty = true
	if t.hook != nil {
		t.hook()
	}
}

// EvalStable implements Stable.
func (t *EvalTracker) EvalStable() bool { return !t.evalDirty }

func (t *EvalTracker) settleEval() { t.evalDirty = false }

func (t *EvalTracker) bindEvalHook(h func()) { t.hook = h }

// evalHooked lets Build install the pending-marking hook on EvalTracker
// embedders.
type evalHooked interface{ bindEvalHook(func()) }

// NullEval is embeddable by modules whose Eval is a no-op (pure sequential
// logic): it declares an empty sensitivity and permanent stability, so the
// scheduler never re-evaluates them.
type NullEval struct{}

// Eval implements Module as a no-op.
func (NullEval) Eval() {}

// Sensitivity implements Sensitive: no combinational reads or drives.
func (NullEval) Sensitivity() Sensitivity { return Sensitivity{} }

// EvalStable implements Stable: a no-op Eval never needs re-running.
func (NullEval) EvalStable() bool { return true }

// ErrDuplicateName is the sentinel wrapped by DuplicateNameError.
var ErrDuplicateName = errors.New("sim: duplicate name")

// DuplicateNameError is returned by Build when two modules, wires, data
// buses or channels are registered under the same name. Names are the only
// handle error messages, traces, and VCD dumps have on a design, so
// collisions were previously a silent source of confusing diagnostics.
type DuplicateNameError struct {
	Kind string // "module", "wire", "data" or "channel"
	Name string
}

// Error implements error.
func (e *DuplicateNameError) Error() string {
	return fmt.Sprintf("sim: duplicate %s name %q", e.Kind, e.Name)
}

// Unwrap keeps errors.Is(err, ErrDuplicateName) working.
func (e *DuplicateNameError) Unwrap() error { return ErrDuplicateName }

// Stats reports scheduler counters accumulated since the simulator was
// created. SkippedEvals estimates the Eval calls the legacy fixpoint kernel
// would have made that the sensitivity scheduler avoided.
type Stats struct {
	// Cycles is the number of completed clock cycles.
	Cycles uint64
	// EvalCalls is the number of Module.Eval invocations.
	EvalCalls uint64
	// SettleWaves is the total number of settle iterations (delta cycles)
	// across all cycles.
	SettleWaves uint64
	// SkippedEvals counts module evaluations avoided by the dirty-set
	// relative to the legacy re-evaluate-everything fixpoint.
	SkippedEvals uint64
	// SkippedTicks counts Tick calls avoided by clock-edge gating
	// (TickSensitive modules asleep on quiet cycles).
	SkippedTicks uint64
	// BatchedCycles counts clock cycles skipped wholesale by quiescence
	// batching: the network was frozen and every would-be tick was covered
	// by a TickHorizon, so the scheduler advanced time without settling,
	// checking or ticking anything.
	BatchedCycles uint64
	// ReadsAllModules names the modules scheduled with the conservative
	// ReadsAll fallback, in registration order. Each one is re-evaluated on
	// every settle wave in which any signal changed, so a non-empty list is
	// the first place to look when the scheduler is not skipping work;
	// vidi-lint's sensaudit cannot audit them either.
	ReadsAllModules []string
}

// String formats the counters for vidi-bench -v.
func (st Stats) String() string {
	s := fmt.Sprintf(
		"cycles=%d evals=%d waves=%d skipped=%d ticks-skipped=%d",
		st.Cycles, st.EvalCalls, st.SettleWaves, st.SkippedEvals, st.SkippedTicks)
	if st.BatchedCycles > 0 {
		s += fmt.Sprintf(" batched=%d", st.BatchedCycles)
	}
	if len(st.ReadsAllModules) > 0 {
		s += fmt.Sprintf(" readsall=%d%v", len(st.ReadsAllModules), st.ReadsAllModules)
	}
	return s
}

// modState is the scheduler's per-module bookkeeping.
type modState struct {
	m      Module
	stable Stable        // nil: always evaluate on wave 0
	clear  evalSettled   // non-nil: reset the module's EvalTracker after Eval
	ticks  TickSensitive // non-nil: Tick may be gated on quiet cycles
}

// bitset is a set of small indices (module registration or channel creation
// order), one bit each.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// add inserts i and reports whether it was absent.
func (b bitset) add(i int32) bool {
	w, m := &b[i>>6], uint64(1)<<(i&63)
	if *w&m != 0 {
		return false
	}
	*w |= m
	return true
}

func (b bitset) remove(i int32) { b[i>>6] &^= 1 << (i & 63) }

func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(i&63)) != 0 }

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// next returns the lowest member at or above i, or -1. It reads the set as
// it is now, so a walk `for i := b.next(0); i >= 0; i = b.next(i + 1)` sees
// members added above its position during the walk and not those added at
// or below it: exactly the order of a scan over every index.
func (b bitset) next(i int32) int32 {
	wi := int(i >> 6)
	if wi >= len(b) {
		return -1
	}
	w := b[wi] & (^uint64(0) << (i & 63))
	for w == 0 {
		if wi++; wi == len(b) {
			return -1
		}
		w = b[wi]
	}
	return int32(wi<<6 + bits.TrailingZeros64(w))
}

// scheduler is the sensitivity-graph engine built by Simulator.Build. Each
// clock phase walks an activity set in registration (or creation) order,
// the same order as the legacy kernel's full scans, so it costs what is
// active in the phase rather than the size of the design.
type scheduler struct {
	sim        *Simulator
	mods       []modState
	allReaders []int32 // modules with the ReadsAll fallback, ascending
	seedAlways []int32 // modules without Stable: evaluate on wave 0 every cycle
	seedPoll   []int32 // StablePoll modules: EvalStable consulted every cycle

	// pending holds the modules whose Eval runs in the current settle.
	pending bitset
	// ticking holds the modules whose Tick runs at the next clock edge:
	// every ungated module, plus every gated one woken by the latch phase, a
	// wake hook, an earlier Tick of the same cycle or its own instability.
	ticking bitset
	// latching holds the channels that can latch an event at the next clock
	// edge: VALID is high (Wire.Set adds the channel when it rises), or the
	// channel latched an event last cycle and must clear it. The latch phase
	// drops a channel once it latches with VALID low; every other channel
	// would latch nothing.
	latching bitset

	changedInWave bool

	// counters (read via Stats after phases complete)
	evals     uint64
	waves     uint64
	skipped   uint64
	tickSkips uint64

	// telemetry bookkeeping, read by the sink when it is gathered (never
	// read during a Step). wakes counts event-driven pending marks (signal changes
	// and Touch hooks); busyCycles counts cycles with at least one Eval.
	wakes      uint64
	busyCycles uint64

	// track is the scheduler's Perfetto lane (nil without tracing); the span
	// fields coalesce consecutive busy cycles into one span.
	track     *telemetry.Track
	spanOpen  bool
	spanStart uint64
	spanEnd   uint64

	// horizons caches each module's TickHorizon implementation (nil if none);
	// batchable is the static precondition for quiescence batching: every
	// ungated module has a horizon (gated modules are covered dynamically —
	// an awake one without a horizon just declines the batch at runtime).
	horizons      []TickHorizon
	batchable     bool
	batchedCycles uint64

	// readsAllNames lists the modules scheduled with the ReadsAll fallback,
	// in registration order, so Stats can surface conservative fallbacks.
	readsAllNames []string
}

// seed marks module mi pending for the current settle.
func (sc *scheduler) seed(mi int32) { sc.pending.add(mi) }

// wake marks module mi pending in response to an event (a signal change or
// a Touch) and counts the wakeup.
func (sc *scheduler) wake(mi int32) {
	if sc.pending.add(mi) {
		sc.wakes++
	}
}

// touched marks the readers of a changed signal pending. A change made
// while settling is picked up by a later module in the same wave or by the
// next wave; a change made by a Tick or by the caller between Steps is
// picked up by the next settle.
func (sc *scheduler) touched(g *sigcore) {
	sc.changedInWave = true
	for _, mi := range g.readers {
		sc.wake(mi)
	}
}

// settle runs one cycle's combinational phase as a worklist: the pending
// set walked in ascending module (registration) order, bounded by maxIters
// waves so combinational loops are still detected. A module marked during a
// wave runs later in the same wave if it sits above the walk's position and
// in the next wave otherwise. The first error stops the pass.
func (sc *scheduler) settle(cycle uint64, maxIters int) error {
	// Wave 0 seeds: everything already pending (an input changed or the
	// module was Touched last cycle), plus the modules that declare no
	// stability at all and the few whose stability must be polled. Everything
	// else is event-driven: Touch and signal changes mark pending directly.
	for _, mi := range sc.seedAlways {
		sc.seed(mi)
	}
	for _, mi := range sc.seedPoll {
		if !sc.mods[mi].stable.EvalStable() {
			sc.seed(mi)
		}
	}
	didWork := false
	for wave := 0; !sc.pending.empty(); wave++ {
		if wave >= maxIters {
			return fmt.Errorf("%w at cycle %d", ErrCombLoop, cycle)
		}
		sc.changedInWave = false
		evals := uint64(0)
		for mi := sc.pending.next(0); mi >= 0; mi = sc.pending.next(mi + 1) {
			sc.pending.remove(mi)
			ms := &sc.mods[mi]
			if pr := sc.sim.probe; pr != nil {
				pr.begin()
				ms.m.Eval()
				pr.end()
				if err := pr.check(int(mi), ms.m.Name(), cycle); err != nil {
					return err
				}
			} else {
				ms.m.Eval()
			}
			if ms.clear != nil {
				ms.clear.settleEval()
			}
			evals++
		}
		sc.evals += evals
		sc.waves++
		sc.skipped += uint64(len(sc.mods)) - evals
		if evals > 0 {
			didWork = true
		}
		// A ReadsAll module re-evaluates on every wave in which anything
		// changed, matching the legacy fixpoint.
		if sc.changedInWave {
			for _, mi := range sc.allReaders {
				sc.seed(mi)
			}
		}
	}
	// The legacy kernel always runs one extra full pass per cycle: the final
	// no-change confirmation (a quiet cycle is exactly one such pass).
	sc.skipped += uint64(len(sc.mods))
	if didWork {
		sc.busyCycles++
		if sc.track != nil {
			sc.noteBusy(cycle)
		}
	}
	return nil
}

// noteBusy extends (or opens) the coalesced busy span; runs of consecutive
// active cycles become a single Perfetto slice, bounding event volume on
// long runs.
func (sc *scheduler) noteBusy(cycle uint64) {
	if sc.spanOpen && sc.spanEnd == cycle {
		sc.spanEnd = cycle + 1
		return
	}
	if sc.spanOpen {
		sc.track.Span("busy", sc.spanStart, sc.spanEnd)
	}
	sc.spanOpen, sc.spanStart, sc.spanEnd = true, cycle, cycle+1
}

// latch runs the clock edge's handshake phase over the latching set, in
// channel creation order. A channel outside the set has VALID low and no
// event latched last cycle, so latching it would change nothing. Handshake
// activity wakes the channel's gated watchers for this cycle's tick phase.
func (sc *scheduler) latch() {
	s := sc.sim
	for ci := sc.latching.next(0); ci >= 0; ci = sc.latching.next(ci + 1) {
		ch := s.channels[ci]
		s.latch(ch)
		if ch.fired || ch.startedNow {
			for _, mi := range ch.watchers {
				sc.wakeTick(mi)
			}
		} else if !ch.Valid.peek() {
			sc.latching.remove(ci)
		}
	}
}

// tick commits sequential state at the clock edge: the ticking set walked
// in registration order. Gated modules sleep through quiet cycles; a wake
// set by an earlier module's Tick is honoured in the same cycle (the walk
// reaches the module's bit later), while a wake from a later module persists
// to the next cycle — in both cases exactly when the legacy kernel's effect
// would land.
func (sc *scheduler) tick() {
	ticks := 0
	for mi := sc.ticking.next(0); mi >= 0; mi = sc.ticking.next(mi + 1) {
		ticks++
		ms := &sc.mods[mi]
		if ms.ticks == nil {
			ms.m.Tick()
			continue
		}
		sc.ticking.remove(mi)
		ms.m.Tick()
		// Re-arm unless the module's own Tick already did (via a self-wake
		// hook).
		if !sc.ticking.has(mi) && !ms.ticks.TickStable() {
			sc.ticking.add(mi)
		}
	}
	sc.tickSkips += uint64(len(sc.mods) - ticks)
}

// wakeTick arms gated module mi's next Tick.
func (sc *scheduler) wakeTick(mi int32) { sc.ticking.add(mi) }

// quiesce reports how many of the next limit cycles can be skipped outright:
// k > 0 means cycles [now, now+k) would each be a no-op — the combinational
// network is frozen (nothing pending, every polled module stable), every
// channel is idle or stalled on an unready consumer so the latch phase
// cannot produce events, and every module that would tick has promised (via
// TickHorizon) that its next k ticks are mechanical. On success the skipped
// time has already been committed: horizons were advanced with SkipTicks and
// the counters account the skipped work exactly as tick/eval gating would
// have.
//
// Frozen state also pins everything downstream of a Step: checker verdicts,
// done() predicates and watchdog progress are functions of module and
// channel state, none of which changes during the skipped stretch — which is
// why Run can jump the clock without running them.
func (sc *scheduler) quiesce(now, limit uint64) uint64 {
	if limit == 0 || !sc.pending.empty() {
		return 0
	}
	for _, mi := range sc.seedPoll {
		if !sc.mods[mi].stable.EvalStable() {
			return 0
		}
	}
	// Every channel with VALID high is in the latching set.
	for ci := sc.latching.next(0); ci >= 0; ci = sc.latching.next(ci + 1) {
		ch := sc.sim.channels[ci]
		// Frozen channel: no offer, or an offer stalled behind a transaction
		// already in flight with the consumer not ready. Anything else would
		// latch a start or a fire next cycle.
		if ch.Valid.peek() && !(ch.inFlight && !ch.Ready.peek()) {
			return 0
		}
	}
	// Modules outside the ticking set are asleep under tick gating: their
	// Tick would not run anyway.
	k := limit
	for mi := sc.ticking.next(0); mi >= 0; mi = sc.ticking.next(mi + 1) {
		th := sc.horizons[mi]
		if th == nil {
			return 0 // an awake module without a horizon must tick for real
		}
		h := th.TickHorizon(now)
		if h <= now {
			return 0
		}
		if h != NoHorizon && h-now < k {
			k = h - now
		}
	}
	// Commit: fast-forward the consulted modules' internal time, and fold
	// the skipped work into the counters exactly as per-cycle gating would
	// have (one legacy confirmation pass of evals and a full tick scan per
	// skipped cycle).
	for mi := sc.ticking.next(0); mi >= 0; mi = sc.ticking.next(mi + 1) {
		sc.horizons[mi].SkipTicks(k)
	}
	n := uint64(len(sc.mods))
	sc.skipped += k * n
	sc.tickSkips += k * n
	sc.batchedCycles += k
	return k
}

// counters adds the scheduler's counters into st.
func (sc *scheduler) counters(st *Stats) {
	st.EvalCalls += sc.evals
	st.SettleWaves += sc.waves
	st.SkippedEvals += sc.skipped
	st.SkippedTicks += sc.tickSkips
	st.BatchedCycles += sc.batchedCycles
}

// SetLegacy selects the seed kernel: a global delta-cycle fixpoint that
// re-evaluates every module until nothing changes. It is kept as the
// reference implementation for the golden determinism tests and the
// perf table; new code should leave the sensitivity scheduler enabled.
func (s *Simulator) SetLegacy(legacy bool) {
	s.legacy = legacy
	s.invalidate()
}

// Legacy reports whether the legacy fixpoint kernel is selected.
func (s *Simulator) Legacy() bool { return s.legacy }

// invalidate discards the built schedule (folding its counters into the
// simulator's running totals) so the next Step rebuilds it. Called whenever
// the design changes: new modules, wires, channels, or kernel knobs.
func (s *Simulator) invalidate() {
	if s.sched != nil {
		s.sched.counters(&s.stats)
		s.sched = nil
	}
	s.probe = nil
	s.built = false
}

// checkNames enforces unique names per kind across the design.
func (s *Simulator) checkNames() error {
	check := func(kind string, names func(yield func(string) bool)) error {
		seen := make(map[string]struct{})
		var dup *DuplicateNameError
		names(func(n string) bool {
			if _, ok := seen[n]; ok {
				dup = &DuplicateNameError{Kind: kind, Name: n}
				return false
			}
			seen[n] = struct{}{}
			return true
		})
		if dup != nil {
			return dup
		}
		return nil
	}
	if err := check("module", func(yield func(string) bool) {
		for _, m := range s.modules {
			if !yield(m.Name()) {
				return
			}
		}
	}); err != nil {
		return err
	}
	// Channels before wires/datas: a channel owns derived ".valid"/".ready"/
	// ".data" signals, so two channels with one name also collide on those.
	// Checking the channel namespace first reports the entity the user
	// actually declared instead of an internal derived wire.
	if err := check("channel", func(yield func(string) bool) {
		for _, ch := range s.channels {
			if !yield(ch.name) {
				return
			}
		}
	}); err != nil {
		return err
	}
	if err := check("wire", func(yield func(string) bool) {
		for _, w := range s.wires {
			if !yield(w.name) {
				return
			}
		}
	}); err != nil {
		return err
	}
	return check("data", func(yield func(string) bool) {
		for _, d := range s.datas {
			if !yield(d.name) {
				return
			}
		}
	})
}

// Build validates the design (unique names, signals of this simulator) and
// compiles the sensitivity graph: per-signal reader lists, wave-0 seeding
// classes and tick-gating hooks. Step calls it lazily; call it directly to
// surface configuration errors early.
func (s *Simulator) Build() error {
	s.invalidate()
	if err := s.checkNames(); err != nil {
		return err
	}
	if s.legacy {
		// The legacy kernel ticks everything every cycle and re-evaluates
		// everything each wave; detach any wake or pending hooks left over
		// from a previous scheduler build.
		for _, m := range s.modules {
			if w, ok := m.(TickWakeable); ok {
				w.BindTickWake(nil)
			}
			if eh, ok := m.(evalHooked); ok {
				eh.bindEvalHook(nil)
			}
		}
		s.built = true
		return nil
	}

	for _, w := range s.wires {
		w.readers = w.readers[:0]
	}
	for _, d := range s.datas {
		d.readers = d.readers[:0]
	}
	nm := len(s.modules)
	sens := make([]Sensitivity, nm)
	sc := &scheduler{
		sim:       s,
		mods:      make([]modState, nm),
		pending:   newBitset(nm),
		ticking:   newBitset(nm),
		latching:  newBitset(len(s.channels)),
		horizons:  make([]TickHorizon, nm),
		batchable: true,
	}
	for ci, ch := range s.channels {
		ch.watchers = ch.watchers[:0]
		if ch.Valid.peek() || ch.fired || ch.startedNow {
			sc.latching.add(int32(ci))
		}
	}
	for i, m := range s.modules {
		if sn, ok := m.(Sensitive); ok {
			sens[i] = sn.Sensitivity()
		} else {
			sens[i] = ReadsEverything()
		}
		if sens[i].ReadsAll {
			sc.readsAllNames = append(sc.readsAllNames, m.Name())
			sc.allReaders = append(sc.allReaders, int32(i))
		} else {
			for _, sg := range sens[i].Reads {
				g := sg.sigmeta()
				if g.sim != s {
					return fmt.Errorf("sim: module %s reads signal %s of a different simulator", m.Name(), sg.Name())
				}
				g.readers = append(g.readers, int32(i))
			}
			for _, sg := range sens[i].Drives {
				if sg.sigmeta().sim != s {
					return fmt.Errorf("sim: module %s drives signal %s of a different simulator", m.Name(), sg.Name())
				}
			}
		}

		if th, ok := m.(TickHorizon); ok {
			sc.horizons[i] = th
		}
		ms := &sc.mods[i]
		ms.m = m
		// Evaluate and tick everything on the first cycle.
		sc.pending.add(int32(i))
		sc.ticking.add(int32(i))
		if st, ok := m.(Stable); ok {
			ms.stable = st
		}
		if cl, ok := m.(evalSettled); ok {
			ms.clear = cl
		}
		// Wave-0 seeding class: no Stable at all → seed every cycle; a
		// StablePoll module with an active external dependency → poll every
		// cycle; everything else is event-driven via Touch and signal changes.
		if ms.stable == nil {
			sc.seedAlways = append(sc.seedAlways, int32(i))
		} else if sp, ok := m.(StablePoll); ok && sp.NeedsStablePoll() {
			sc.seedPoll = append(sc.seedPoll, int32(i))
		}
		if eh, ok := m.(evalHooked); ok {
			mi := int32(i)
			eh.bindEvalHook(func() { sc.wake(mi) })
		}
		if ts, ok := m.(TickSensitive); ok {
			ms.ticks = ts
			for _, ch := range ts.TickWatch() {
				if ch != nil {
					ch.watchers = append(ch.watchers, int32(i))
				}
			}
		} else if sc.horizons[i] == nil {
			// An ungated module ticks every cycle with no horizon to
			// bound the skip, so this design can never batch.
			sc.batchable = false
		}
		if w, ok := m.(TickWakeable); ok {
			if ms.ticks == nil {
				// Ungated modules tick every cycle; a wake is meaningless.
				w.BindTickWake(nil)
			} else {
				mi := int32(i)
				w.BindTickWake(func() { sc.wakeTick(mi) })
			}
		}
	}

	// Move signal state into the struct-of-arrays slabs.
	s.buildSlabs()

	if s.tel != nil {
		sc.bindTelemetry(s.tel)
	}
	if s.sensCheck {
		s.probe = s.buildProbe(sens)
	}
	s.sched = sc
	s.built = true
	return nil
}

// Stats returns the scheduler counters accumulated so far.
func (s *Simulator) Stats() Stats {
	st := s.stats
	st.Cycles = s.cycle
	if s.sched != nil {
		s.sched.counters(&st)
		st.ReadsAllModules = append([]string(nil), s.sched.readsAllNames...)
	}
	return st
}
