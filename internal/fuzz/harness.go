package fuzz

import (
	"bytes"
	"fmt"
	"io"

	"vidi/internal/core"
	"vidi/internal/fault"
	"vidi/internal/shell"
	"vidi/internal/sim"
	"vidi/internal/telemetry"
	"vidi/internal/trace"
)

// FailureKind classifies which oracle a scenario failed.
type FailureKind string

const (
	// FailRun: the execution itself errored — deadlock, combinational loop,
	// protocol-checker violation, store fault or cycle-budget exhaustion.
	FailRun FailureKind = "run-error"
	// FailEcho: host DRAM after the run differs from the DMA-written
	// payload (end-to-end data loss or corruption).
	FailEcho FailureKind = "echo-mismatch"
	// FailGolden: a graph-carrying design's host-DRAM bytes differ from the
	// design package's cycle-free golden-model prediction (the differential
	// compiler oracle).
	FailGolden FailureKind = "golden-divergence"
	// FailKernel: legacy fixpoint and sensitivity-graph scheduler produced
	// different traces or VCD dumps for the same seed.
	FailKernel FailureKind = "kernel-divergence"
	// FailReplay: replaying the recorded trace errored or diverged from the
	// recording.
	FailReplay FailureKind = "replay-divergence"
	// FailMutation: replaying a legally reordered copy of the trace (W end
	// moved before its AW end on pcim, §5.3) did not complete.
	FailMutation FailureKind = "mutation-deadlock"
)

// Failure describes one oracle violation.
type Failure struct {
	Kind   FailureKind `json:"kind"`
	Detail string      `json:"detail"`
}

func (f *Failure) Error() string { return fmt.Sprintf("%s: %s", f.Kind, f.Detail) }

// Outcome is the harness verdict for one scenario.
type Outcome struct {
	Scenario *Scenario
	// Failure is nil when every oracle passed.
	Failure *Failure
	// Cycles is the scheduler-kernel record run's length.
	Cycles uint64
	// Unrecorded counts degraded-recording gaps observed by the replay
	// comparison (allowed; reported for visibility).
	Unrecorded uint64
}

// Run-budget constants: generated designs are tiny (tens of frames through
// shallow FIFO chains), so these bounds are generous while keeping a
// deadlocked probe cheap to detect.
const (
	maxRunCycles   = 2_000_000
	maxProbeCycles = 500_000
	probeWatchdog  = 4_000
	recordWatchdog = 100_000
)

// runOpts selects one execution of a scenario.
type runOpts struct {
	legacy   bool
	replay   *trace.Trace // nil = record mode
	record   bool         // attach a recording (validation) monitor
	faults   bool         // arm the scenario's fault plan
	vcd      bool         // capture a VCD dump of the boundary channels
	tel      *telemetry.Sink
	watchdog uint64
	budget   uint64
}

// runResult is one execution's artifacts.
type runResult struct {
	tr     *trace.Trace
	vcd    []byte
	design *pipeline
	cycles uint64
	err    error
}

// runScenario assembles and runs one execution of sc, mirroring the eval
// harness's system/shim wiring for an unregistered (generated) design.
func runScenario(sc *Scenario, o runOpts) *runResult {
	res := &runResult{}
	replaying := o.replay != nil
	sys := shell.NewSystem(shell.Config{
		Replay:    replaying,
		Seed:      sc.Seed,
		JitterMax: sc.JitterMax,
		Telemetry: o.tel,
	})
	sys.Sim.SetLegacy(o.legacy)
	if o.tel != nil {
		sys.Sim.SetTelemetry(o.tel)
	}
	// The conformance fuzzer doubles as the dynamic sensitivity auditor:
	// scheduler-side runs execute with declaration checking armed, so a
	// generated module touching a signal outside its declared Sensitivity
	// surfaces as a run error (finding) instead of a silent missed wakeup.
	sys.Sim.SetSensitivityCheck(!o.legacy)
	if o.watchdog > 0 {
		sys.Sim.WatchdogWindow = o.watchdog
	}
	d := newDesign(sc, sys)
	res.design = d

	opts := core.Options{
		BufBytes:          sc.BufBytes,
		DegradedRecording: sc.Degraded,
		Link:              sys.PCIe,
		Telemetry:         o.tel,
	}
	if replaying {
		opts.Mode = core.ModeReplay
		opts.ReplayTrace = o.replay
		opts.Record = o.record
		opts.ValidateOutputs = o.record
	} else {
		opts.Mode = core.ModeRecord
		opts.ValidateOutputs = true
	}
	shim, err := core.NewShim(sys.Sim, sys.Boundary, opts)
	if err != nil {
		res.err = err
		return res
	}
	if o.faults {
		fault.Arm(sc.faultPlan(), sys, shim)
	}

	var vcdBuf bytes.Buffer
	if o.vcd {
		w := sim.NewVCDWriter(sys.Sim, &vcdBuf)
		for _, bc := range sys.Boundary.Channels() {
			w.AddChannel(bc.App)
		}
		sys.Sim.Register(w)
		defer func() {
			if cerr := w.Close(); cerr != nil && res.err == nil {
				res.err = cerr
			}
			res.vcd = vcdBuf.Bytes()
		}()
	}

	var done func() bool
	if replaying {
		done = func() bool { return shim.ReplayDone() && d.Done() }
	} else {
		d.Program(sys.CPU)
		done = func() bool { return sys.CPU.Done() && d.Done() }
	}
	budget := o.budget
	if budget == 0 {
		budget = maxRunCycles
	}
	res.cycles, res.err = sys.Sim.Run(budget, done)
	res.tr = shim.Trace()
	return res
}

// RunSeed executes the full oracle stack for sc:
//
//  1. record on the scheduler kernel; the run must complete cleanly with no
//     ingress loss, and the bytes in host DRAM must match the data oracle —
//     the sent payload for graph-free designs (echo), or the design
//     package's golden-model prediction for graph-carrying ones
//     (differential compiler conformance);
//  2. record on the legacy kernel; trace and VCD must be byte-identical to
//     the scheduler kernel's (differential kernel conformance);
//  3. replay the recorded trace; the validation trace must compare clean
//     (degraded-recording gaps allowed, counted in Unrecorded);
//  4. if MutateProbe: replay a copy with the first pcim W end legally moved
//     before its AW end; the design must still complete.
func RunSeed(sc *Scenario) *Outcome {
	out, _ := runOracles(sc, nil)
	return out
}

// runOracles is RunSeed with an optional telemetry sink attached to the
// scheduler-kernel record leg, whose run result is returned for coverage
// extraction (nil when the scenario failed validation).
func runOracles(sc *Scenario, tel *telemetry.Sink) (*Outcome, *runResult) {
	out := &Outcome{Scenario: sc}
	if err := sc.Validate(); err != nil {
		out.Failure = &Failure{Kind: FailRun, Detail: err.Error()}
		return out, nil
	}

	// Oracle 1: clean completion + data integrity on the scheduler kernel.
	// Ingress loss is attributed first (FailEcho, the §5.2 signature); a
	// loss-free graph run is then held to the golden model exactly.
	rec := runScenario(sc, runOpts{record: true, faults: true, vcd: true, watchdog: recordWatchdog, tel: tel})
	out.Cycles = rec.cycles
	if rec.err != nil {
		out.Failure = &Failure{Kind: FailRun, Detail: fmt.Sprintf("record (scheduler kernel): %v", rec.err)}
		return out, rec
	}
	if err := rec.design.LossErr(); err != nil {
		out.Failure = &Failure{Kind: FailEcho, Detail: err.Error()}
		return out, rec
	}
	if sc.Graph == nil {
		if err := rec.design.EchoErr(); err != nil {
			out.Failure = &Failure{Kind: FailEcho, Detail: err.Error()}
			return out, rec
		}
	} else if err := rec.design.GoldenErr(); err != nil {
		out.Failure = &Failure{Kind: FailGolden, Detail: err.Error()}
		return out, rec
	}

	// Oracle 2: the legacy fixpoint kernel must reproduce the same bytes.
	leg := runScenario(sc, runOpts{legacy: true, record: true, faults: true, vcd: true, watchdog: recordWatchdog})
	if leg.err != nil {
		out.Failure = &Failure{Kind: FailRun, Detail: fmt.Sprintf("record (legacy kernel): %v", leg.err)}
		return out, rec
	}
	if !bytes.Equal(rec.tr.Bytes(), leg.tr.Bytes()) {
		out.Failure = &Failure{Kind: FailKernel, Detail: "trace bytes differ between kernels"}
		return out, rec
	}
	if !bytes.Equal(rec.vcd, leg.vcd) {
		out.Failure = &Failure{Kind: FailKernel, Detail: "VCD bytes differ between kernels"}
		return out, rec
	}

	// Oracle 3: record → replay exactness (including degraded gaps).
	rep := runScenario(sc, runOpts{replay: mustCopy(rec.tr), record: true, watchdog: recordWatchdog})
	if rep.err != nil {
		out.Failure = &Failure{Kind: FailReplay, Detail: fmt.Sprintf("replay run: %v", rep.err)}
		return out, rec
	}
	report, err := core.Compare(rec.tr, rep.tr)
	if err != nil {
		out.Failure = &Failure{Kind: FailReplay, Detail: fmt.Sprintf("compare: %v", err)}
		return out, rec
	}
	out.Unrecorded = report.Unrecorded
	if !report.Clean() {
		out.Failure = &Failure{Kind: FailReplay, Detail: report.String()}
		return out, rec
	}
	if !sc.Degraded && report.Unrecorded > 0 {
		out.Failure = &Failure{Kind: FailReplay,
			Detail: fmt.Sprintf("%d unrecorded transactions without degraded recording", report.Unrecorded)}
		return out, rec
	}

	// Oracle 4: legal-interleaving robustness (§5.3 mutation probe).
	if sc.MutateProbe {
		mut := mustCopy(rec.tr)
		if err := core.MoveEndBefore(mut, "pcim.W", 0, "pcim.AW", 0); err == nil {
			probe := runScenario(sc, runOpts{replay: mut, watchdog: probeWatchdog, budget: maxProbeCycles})
			if probe.err != nil {
				out.Failure = &Failure{Kind: FailMutation,
					Detail: fmt.Sprintf("mutated replay (W end before AW end on pcim): %v", probe.err)}
				return out, rec
			}
		}
		// No pcim write transaction to reorder (fully lossy run): skip.
	}
	return out, rec
}

// TraceSeed re-runs sc's recording (scheduler kernel, faults armed) with the
// span tracer on and writes the Perfetto timeline to w, making a failing
// seed inspectable cycle by cycle. The timeline is written even when the run
// errors — a deadlocked seed's partial timeline shows where progress
// stopped. Returns the run's cycle count and its error, after any write
// error.
func TraceSeed(sc *Scenario, w io.Writer) (uint64, error) {
	sink := telemetry.New(telemetry.WithTracing())
	res := runScenario(sc, runOpts{record: true, faults: true, watchdog: recordWatchdog, tel: sink})
	if err := sink.WriteTrace(w); err != nil {
		return res.cycles, err
	}
	return res.cycles, res.err
}

// mustCopy deep-copies a trace through its codec; the codec round-trips its
// own output by construction.
func mustCopy(t *trace.Trace) *trace.Trace {
	c, err := trace.FromBytes(t.Bytes())
	if err != nil {
		panic(fmt.Sprintf("fuzz: trace failed to round-trip its own bytes: %v", err))
	}
	return c
}
