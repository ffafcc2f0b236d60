// Package eval is the experiment harness: it assembles a shell system, an
// application and a Vidi shim in the paper's three configurations — R1
// (transparent), R2 (record), R3 (replay + record outputs) — runs the
// execution, and gathers the measurements behind Table 1, Table 2, Fig 7,
// the §5.4 effectiveness experiment and the §6 bandwidth analysis.
package eval

import (
	"fmt"
	"os"

	"vidi/internal/apps"
	"vidi/internal/core"
	"vidi/internal/fault"
	"vidi/internal/shell"
	"vidi/internal/sim"
	"vidi/internal/telemetry"
	"vidi/internal/trace"
)

// Configuration names from §5.1 of the paper.
type Configuration int

const (
	// R1 disables recording and replaying (Vidi transparent).
	R1 Configuration = iota
	// R2 enables recording (with output contents for divergence detection).
	R2
	// R3 enables replaying while recording output transactions.
	R3
)

// String implements fmt.Stringer.
func (c Configuration) String() string { return [...]string{"R1", "R2", "R3"}[c] }

// RunConfig describes one experiment run.
type RunConfig struct {
	App   string
	Scale int
	Seed  int64
	Cfg   Configuration
	// ReplayTrace is required for R3.
	ReplayTrace *trace.Trace
	// BufBytes / StoreBytesPerCycle override the shim defaults when >0.
	BufBytes           int
	StoreBytesPerCycle int
	// StoreAndForward selects the conservative monitor (ablation).
	StoreAndForward bool
	// EmitIdlePackets disables event-only encoding (ablation).
	EmitIdlePackets bool
	// OnlyInterfaces restricts monitoring to the named shell interfaces
	// (nil = all five + irq), the paper's reduced-overhead deployment.
	OnlyInterfaces []string
	// VCDPath, when set, dumps the boundary's FPGA-side signals to a
	// waveform file for inspection (the §5.2 debugging workflow).
	VCDPath string
	// MaxCycles bounds the run; 0 selects 50M.
	MaxCycles uint64
	// JitterMax bounds CPU-side timing noise; 0 selects 8.
	JitterMax int
	// FaultPlan, when non-nil, arms the plan's deterministic fault
	// injectors (storage brownouts/outages, CPU stalls, DRAM hiccups) on
	// the built system.
	FaultPlan *fault.Plan
	// DegradedRecording lets recording go lossy under sustained
	// back-pressure instead of stalling the application indefinitely.
	DegradedRecording bool
	// StallBudgetCycles overrides the degradation stall budget when >0.
	StallBudgetCycles int
	// LegacyKernel selects the seed fixpoint simulation kernel instead of
	// the sensitivity-graph scheduler, for golden-determinism comparison and
	// the kernel perf table.
	LegacyKernel bool
	// SensitivityCheck arms the kernel's dynamic declaration checker
	// (sim.Simulator.SetSensitivityCheck): every Eval is audited against its
	// module's declared Reads/Drives and a mismatch fails the run.
	SensitivityCheck bool
	// Telemetry, when non-nil, arms the unified metrics/tracing sink across
	// the whole stack: scheduler, record/replay core, shell engines and
	// fault injectors. Observational only — recorded traces are
	// byte-identical with or without a sink (enforced by the telemetry
	// golden tests).
	Telemetry *telemetry.Sink
}

// RunResult is the outcome of one experiment run.
type RunResult struct {
	App    apps.App
	Sys    *shell.System
	Shim   *core.Shim
	Cycles uint64
	// Trace is the recorded trace (R2: full; R3: validation trace).
	Trace *trace.Trace
	// CheckErr is the application's golden-model verdict (nil in replay
	// runs, where the environment-side data paths are not reconstructed).
	CheckErr error
	// Stats are the simulation kernel's scheduler counters for the run.
	Stats sim.Stats
}

// Built is an assembled-but-not-run experiment, for tests that need to
// drive the simulation themselves (e.g. prefix replays that never reach
// application completion).
type Built struct {
	Sys  *shell.System
	Shim *core.Shim
	App  apps.App
	Done func() bool
	rc   RunConfig
	vcd  *sim.VCDWriter
}

// Run executes one configuration of one application.
func Run(rc RunConfig) (*RunResult, error) {
	b, err := Build(rc)
	if err != nil {
		return nil, err
	}
	return b.Execute()
}

// Build assembles the system, application and shim for rc without running.
func Build(rc RunConfig) (*Built, error) {
	if rc.Scale < 1 {
		rc.Scale = 1
	}
	if rc.MaxCycles == 0 {
		rc.MaxCycles = 50_000_000
	}
	jitter := rc.JitterMax
	if jitter == 0 {
		jitter = 8
	}
	replay := rc.Cfg == R3
	sys := shell.NewSystem(shell.Config{
		Replay:    replay,
		Seed:      rc.Seed,
		JitterMax: jitter,
		Telemetry: rc.Telemetry,
	})
	sys.Sim.SetLegacy(rc.LegacyKernel)
	sys.Sim.SetSensitivityCheck(rc.SensitivityCheck)
	if rc.Telemetry != nil {
		sys.Sim.SetTelemetry(rc.Telemetry)
	}
	app, err := apps.New(rc.App, rc.Scale)
	if err != nil {
		return nil, err
	}
	app.Build(sys)

	// The trace store shares the application's PCIe link, as it does when
	// deployed.
	opts := core.Options{
		BufBytes:           rc.BufBytes,
		StoreBytesPerCycle: rc.StoreBytesPerCycle,
		StoreAndForward:    rc.StoreAndForward,
		EmitIdlePackets:    rc.EmitIdlePackets,
		OnlyInterfaces:     rc.OnlyInterfaces,
		DegradedRecording:  rc.DegradedRecording,
		StallBudgetCycles:  rc.StallBudgetCycles,
		Telemetry:          rc.Telemetry,
		Link:               sys.PCIe,
	}
	switch rc.Cfg {
	case R1:
		opts.Mode = core.ModeOff
	case R2:
		opts.Mode = core.ModeRecord
		opts.ValidateOutputs = true
	case R3:
		opts.Mode = core.ModeReplay
		opts.Record = true
		opts.ValidateOutputs = true
		opts.ReplayTrace = rc.ReplayTrace
	}
	shim, err := core.NewShim(sys.Sim, sys.Boundary, opts)
	if err != nil {
		return nil, err
	}
	// Injectors arm last so they perturb a fully-assembled system.
	fault.Arm(rc.FaultPlan, sys, shim)

	var vcd *sim.VCDWriter
	if rc.VCDPath != "" {
		f, ferr := os.Create(rc.VCDPath)
		if ferr != nil {
			return nil, ferr
		}
		vcd = sim.NewVCDWriter(sys.Sim, f)
		for _, bc := range sys.Boundary.Channels() {
			vcd.AddChannel(bc.App)
		}
		sys.Sim.Register(vcd)
	}

	var done func() bool
	if replay {
		done = func() bool { return shim.ReplayDone() && app.DoneFPGA() }
	} else {
		app.Program(sys.CPU)
		done = func() bool { return sys.CPU.Done() && app.DoneFPGA() }
	}
	return &Built{Sys: sys, Shim: shim, App: app, Done: done, rc: rc, vcd: vcd}, nil
}

// Execute runs a Built experiment to completion.
func (b *Built) Execute() (*RunResult, error) {
	cycles, err := b.Sys.Sim.Run(b.rc.MaxCycles, b.Done)
	if b.vcd != nil {
		if cerr := b.vcd.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("eval: %s/%s: %w", b.rc.App, b.rc.Cfg, err)
	}
	res := &RunResult{
		App: b.App, Sys: b.Sys, Shim: b.Shim, Cycles: cycles,
		Trace: b.Shim.Trace(), Stats: b.Sys.Sim.Stats(),
	}
	if b.rc.Cfg != R3 {
		res.CheckErr = b.App.Check()
	}
	return res, nil
}

// ReplayVerify replays a previously recorded trace (configuration R3) and
// returns the divergence report against it — the workflow a vidi-serve
// replay job runs against an uploaded run. maxCycles bounds the replay (0
// selects the harness default), so a wedged replay fails loudly instead of
// pinning a service worker forever.
func ReplayVerify(app string, scale int, seed int64, tr *trace.Trace, maxCycles uint64) (*core.Report, *RunResult, error) {
	rep, err := Run(RunConfig{App: app, Scale: scale, Seed: seed, Cfg: R3, ReplayTrace: tr, MaxCycles: maxCycles})
	if err != nil {
		return nil, nil, err
	}
	report, err := core.Compare(tr, rep.Trace)
	if err != nil {
		return nil, rep, err
	}
	return report, rep, nil
}

// RecordReplay performs the full §5.4 workflow for one app: an R2 reference
// recording followed by an R3 replay recording a validation trace, and
// returns the divergence report.
func RecordReplay(app string, scale int, seed int64) (*core.Report, *RunResult, *RunResult, error) {
	rec, err := Run(RunConfig{App: app, Scale: scale, Seed: seed, Cfg: R2})
	if err != nil {
		return nil, nil, nil, err
	}
	if rec.CheckErr != nil {
		return nil, nil, nil, fmt.Errorf("eval: %s recording failed golden check: %w", app, rec.CheckErr)
	}
	rep, err := Run(RunConfig{App: app, Scale: scale, Seed: seed, Cfg: R3, ReplayTrace: rec.Trace})
	if err != nil {
		return nil, rec, nil, err
	}
	report, err := core.Compare(rec.Trace, rep.Trace)
	if err != nil {
		return nil, rec, rep, err
	}
	return report, rec, rep, nil
}
