// Package fault is Vidi's deterministic fault-injection subsystem. It
// manufactures the failure modes a deployed record/replay shim must survive
// — storage-link outages and brownouts, trace corruption in transit,
// host-agent scheduling stalls, DRAM-controller hiccups — as seeded,
// schedulable injectors that plug into the simulation without touching the
// design under test.
//
// Everything is derived from a single plan seed: the same seed yields
// byte-identical fault schedules, so a failing run reproduces exactly. The
// injectors are ordinary sim.Modules (registered last, so they perturb an
// already-settled design), plus offline transport mutators for the
// storage-frame path.
package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"

	"vidi/internal/axi"
	"vidi/internal/core"
	"vidi/internal/shell"
	"vidi/internal/sim"
	"vidi/internal/telemetry"
	"vidi/internal/trace"
)

// Class enumerates the injectable fault classes.
type Class int

const (
	// LinkBrownout starves the shared PCIe token bucket for the window,
	// throttling both application DMA and the trace store to a trickle.
	LinkBrownout Class = iota
	// LinkOutage fails trace-store transfers outright for the window,
	// exercising the store's retry-with-backoff path.
	LinkOutage
	// BitFlip corrupts bytes of the framed trace in transit (offline
	// transport mutation; the CRC framing must catch every flip).
	BitFlip
	// Truncate drops the tail of the framed trace in transit (offline
	// transport mutation; the decoder must detect the loss).
	Truncate
	// CPUStall freezes the host agent's issue loop for the window,
	// modelling OS preemption of the agent process.
	CPUStall
	// DMAHiccup inflates the on-card DRAM controller's response latency
	// for the window.
	DMAHiccup

	numClasses
)

// Classes lists every injectable class.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case LinkBrownout:
		return "link-brownout"
	case LinkOutage:
		return "link-outage"
	case BitFlip:
		return "bit-flip"
	case Truncate:
		return "truncate"
	case CPUStall:
		return "cpu-stall"
	case DMAHiccup:
		return "dma-hiccup"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Window is a half-open cycle interval [Start, End) during which a fault is
// active.
type Window struct {
	Start, End uint64
}

// Contains reports whether cycle cy falls inside the window.
func (w Window) Contains(cy uint64) bool { return cy >= w.Start && cy < w.End }

// Spec schedules one fault class.
type Spec struct {
	Class Class
	// Windows are the active intervals, in simulation cycles. Offline
	// classes (BitFlip, Truncate) ignore windows.
	Windows []Window
	// Severity is a class-specific intensity in (0, 1]: the starved
	// bandwidth fraction for brownouts, the corruption amount scale for
	// transport mutation, the latency scale for hiccups.
	Severity float64
}

// active reports whether any window contains cy.
func (s *Spec) active(cy uint64) bool {
	for _, w := range s.Windows {
		if w.Contains(cy) {
			return true
		}
	}
	return false
}

// Plan is a complete, deterministic fault schedule.
//
// Concurrency: a Plan is immutable after NewPlan and safe for concurrent
// use from many goroutines (vidi-serve arms one per live session). No RNG
// state lives on the Plan — every method that draws randomness
// (CorruptFrames, TruncateFrames) derives a fresh seeded source per call,
// so concurrent callers never share a rand.Rand. Arm installs per-system
// closures with their own private state and must be called once per built
// system; the injectors it installs are owned by that system's simulator.
type Plan struct {
	Seed  int64
	Specs []Spec
}

// Derive returns an independent plan for the same classes, with the seed
// mixed with an fnv-64a hash of label — the per-consumer stream derivation
// the shell uses for CPU jitter. Two sessions arming the same base plan
// under different labels draw uncorrelated (but individually reproducible)
// schedules, so a serve-side chaos run can fault many concurrent sessions
// without synchronizing their windows.
func (p *Plan) Derive(label string) *Plan {
	h := fnv.New64a()
	h.Write([]byte(label))
	classes := make([]Class, len(p.Specs))
	for i := range p.Specs {
		classes[i] = p.Specs[i].Class
	}
	return NewPlan(p.Seed^int64(h.Sum64()), classes...)
}

// Per-class seed salts, so each class draws an independent deterministic
// schedule from the plan seed.
func classSalt(c Class) int64 { return 0x5eed<<16 | int64(c)*0x9e37 }

// Window-generation bounds. Starts land early enough to hit even the
// smallest benchmark apps (the DMA loopback finishes in ~6k cycles at scale
// 1); outage windows stay shorter than the store's ~1k-cycle retry span so
// a transient outage remains survivable.
const (
	minStart = 200
	maxStart = 2000
)

// NewPlan derives a deterministic schedule for the given classes from seed.
// The same (seed, classes) always produces byte-identical windows.
func NewPlan(seed int64, classes ...Class) *Plan {
	p := &Plan{Seed: seed}
	for _, c := range classes {
		rng := sim.NewRand(seed ^ classSalt(c))
		s := Spec{Class: c}
		switch c {
		case LinkBrownout:
			s.Severity = 0.95
			s.Windows = drawWindows(rng, 2, 300, 1200)
		case LinkOutage:
			s.Severity = 1.0
			s.Windows = drawWindows(rng, 1, 100, 350)
		case CPUStall:
			s.Severity = 1.0
			s.Windows = drawWindows(rng, 2, 50, 400)
		case DMAHiccup:
			s.Severity = 0.5
			s.Windows = drawWindows(rng, 3, 100, 600)
		case BitFlip:
			s.Severity = 0.5 // scales the number of flipped bytes
		case Truncate:
			s.Severity = 0.25 // fraction of trailing frames dropped
		}
		p.Specs = append(p.Specs, s)
	}
	return p
}

// drawWindows draws n non-deterministically-placed but seed-deterministic
// windows with lengths in [minLen, maxLen].
func drawWindows(rng *rand.Rand, n int, minLen, maxLen uint64) []Window {
	out := make([]Window, n)
	for i := range out {
		start := uint64(minStart) + uint64(rng.Intn(maxStart-minStart))
		length := minLen + uint64(rng.Intn(int(maxLen-minLen+1)))
		out[i] = Window{Start: start, End: start + length}
	}
	return out
}

// Spec returns the plan's spec for class c, or nil when the class is not
// scheduled.
func (p *Plan) Spec(c Class) *Spec {
	for i := range p.Specs {
		if p.Specs[i].Class == c {
			return &p.Specs[i]
		}
	}
	return nil
}

// String renders the schedule.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault plan (seed %d):", p.Seed)
	for _, s := range p.Specs {
		fmt.Fprintf(&b, "\n  %-13s severity %.2f", s.Class, s.Severity)
		for _, w := range s.Windows {
			fmt.Fprintf(&b, " [%d,%d)", w.Start, w.End)
		}
	}
	return b.String()
}

// clock is a tiny module counting simulation cycles for the injectors. It
// registers last, so injectors observing it act on the just-completed cycle
// count — deterministic by registration order like everything else.
type clock struct {
	sim.NullEval
	cycle uint64
}

func (k *clock) Name() string { return "fault-clock" }
func (k *clock) Tick()        { k.cycle++ }

// starver drains a token bucket during its windows, leaving only
// (1-Severity) of the replenish rate for real traffic.
type starver struct {
	sim.NullEval
	k      *clock
	spec   *Spec
	bucket *axi.TokenBucket

	inj       uint64 // one injection per window entry
	wasActive bool
}

func (s *starver) Name() string { return fmt.Sprintf("fault-%s", s.spec.Class) }
func (s *starver) Tick() {
	active := s.spec.active(s.k.cycle)
	if active {
		if !s.wasActive {
			s.inj++
		}
		s.bucket.Spend(int(s.spec.Severity * s.bucket.BytesPerCy))
	}
	s.wasActive = active
}

// Arm installs the plan's injectors into a built system. sh may be nil when
// the run does not record (no trace store to fault). Offline classes
// (BitFlip, Truncate) install nothing; apply them to the framed trace with
// the plan's Corrupt/TruncateFrames methods after the run.
func Arm(p *Plan, sys *shell.System, sh *core.Shim) {
	if p == nil {
		return
	}
	k := &clock{}
	armed := false
	// Injection counts by kind, keyed to the plan seed: each injector keeps
	// its count and registers a read of it. The shell's sink may be nil, in
	// which case registering is a no-op.
	sink := sys.Cfg.Telemetry
	injections := func(c Class, read func() uint64) {
		sink.CounterFunc("vidi_fault_injections_total",
			"Fault injector activations by kind, keyed to the plan seed.", read,
			telemetry.L("kind", c.String()),
			telemetry.L("seed", strconv.FormatInt(p.Seed, 10)))
	}
	for i := range p.Specs {
		s := &p.Specs[i]
		switch s.Class {
		case LinkBrownout:
			sv := &starver{k: k, spec: s, bucket: sys.PCIe}
			injections(s.Class, func() uint64 { return sv.inj })
			sys.Sim.Register(sv)
			armed = true
		case LinkOutage:
			if sh != nil && sh.Store() != nil {
				spec := s
				var inj uint64
				injections(s.Class, func() uint64 { return inj })
				sh.Store().FaultFn = func(cycle uint64) bool {
					ok := !spec.active(cycle)
					if !ok {
						inj++
					}
					return ok
				}
				armed = true
			}
		case CPUStall:
			if sys.CPU != nil {
				spec := s
				var inj uint64
				injections(s.Class, func() uint64 { return inj })
				wasActive := false
				sys.CPU.StallFn = func() bool {
					active := spec.active(k.cycle)
					if active && !wasActive {
						inj++
					}
					wasActive = active
					return active
				}
				armed = true
			}
		case DMAHiccup:
			spec := s
			var inj uint64
			injections(s.Class, func() uint64 { return inj })
			orig := sys.DDRSub.RespDelay
			extra := 1 + int(spec.Severity*24)
			sys.DDRSub.RespDelay = func() int {
				d := 0
				if orig != nil {
					d = orig()
				}
				if spec.active(k.cycle) {
					inj++
					d += extra
				}
				return d
			}
			armed = true
		}
	}
	if armed {
		sys.Sim.Register(k)
	}
}

// CorruptFrames returns a copy of the framed trace with deterministic,
// seed-derived single-byte flips applied — the in-transit corruption the
// CRC framing must catch. At least one byte is always flipped.
func (p *Plan) CorruptFrames(frames [][trace.StoragePacketSize]byte) [][trace.StoragePacketSize]byte {
	out := make([][trace.StoragePacketSize]byte, len(frames))
	copy(out, frames)
	if len(out) == 0 {
		return out
	}
	sev := p.severityOf(BitFlip, 0.5)
	rng := sim.NewRand(p.Seed ^ classSalt(BitFlip))
	n := 1 + int(sev*float64(len(out)))
	for i := 0; i < n; i++ {
		fi := rng.Intn(len(out))
		bi := rng.Intn(trace.StoragePacketSize)
		out[fi][bi] ^= 1 << uint(rng.Intn(8))
	}
	return out
}

// TruncateFrames returns the framed trace with a seed-derived fraction of
// trailing frames dropped — in-transit loss the decoder must detect. At
// least one frame is always dropped.
func (p *Plan) TruncateFrames(frames [][trace.StoragePacketSize]byte) [][trace.StoragePacketSize]byte {
	if len(frames) == 0 {
		return frames
	}
	sev := p.severityOf(Truncate, 0.25)
	drop := 1 + int(sev*float64(len(frames)-1))
	if drop >= len(frames) {
		drop = len(frames) - 1
	}
	return frames[:len(frames)-drop]
}

func (p *Plan) severityOf(c Class, def float64) float64 {
	if s := p.Spec(c); s != nil && s.Severity > 0 {
		return s.Severity
	}
	return def
}
