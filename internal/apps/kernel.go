package apps

import (
	"vidi/internal/axi"
	"vidi/internal/shell"
	"vidi/internal/sim"
)

// Kernel is the generic accelerator skeleton shared by the compute
// applications: on a Go-register write it runs the application's data path
// over card DRAM, then models the computation's duration with a cycle
// budget before signalling completion through a user interrupt (the
// divergence-free completion mechanism; only the DRAM-DMA app uses
// polling, as in the paper). Results may additionally be streamed to host
// DRAM over pcim.
//
// The data path executes functionally while the cycle budget models its
// latency; the budget is derived from the same work counts (pixels,
// edges, rounds, multiply-accumulates) a pipelined hardware implementation
// would spend cycles on, so the compute/IO ratios that drive the paper's
// efficiency results are preserved.
type Kernel struct {
	sim.NullEval
	name string
	pl   *Plumbing

	// Compute runs the data path; it returns the cycle budget to consume
	// before completion.
	Compute func() int
	// Stream, if non-nil, is called at completion and may push pcim write
	// operations toward host DRAM.
	Stream func(w *axi.WriteManager)

	busy   bool
	budget int
	runs   int

	tickWake func()
}

// NewKernel registers a kernel hooked to the plumbing's Go register.
func NewKernel(name string, pl *Plumbing) *Kernel {
	k := &Kernel{name: name, pl: pl}
	pl.Sys.Sim.Register(k)
	pl.Regs.OnWrite = func(addr uint64, val uint32) {
		if addr == RegGo && val == 1 {
			k.start()
		}
	}
	return k
}

// Name implements sim.Module.
func (k *Kernel) Name() string { return k.name }

func (k *Kernel) start() {
	k.busy = true
	k.pl.Regs.Set(RegStatus, 0)
	k.budget = k.Compute()
	if k.budget < 1 {
		k.budget = 1
	}
	if k.tickWake != nil {
		k.tickWake()
	}
}

// TickWatch implements sim.TickSensitive: the kernel reacts to no channel
// directly — it is woken by the register-file write hook (start).
func (k *Kernel) TickWatch() []*sim.Channel { return nil }

// TickStable implements sim.TickSensitive: an idle kernel's Tick is a no-op
// until the next start; a busy one counts its budget down every cycle.
func (k *Kernel) TickStable() bool { return !k.busy }

// BindTickWake implements sim.TickWakeable; start wakes the kernel. The
// register write hook fires from the register subordinate's Tick, which
// precedes the kernel in registration order, so the woken Tick lands in the
// same cycle as on the legacy kernel.
func (k *Kernel) BindTickWake(wake func()) { k.tickWake = wake }

// TickHorizon implements sim.TickHorizon: while the kernel burns its compute
// budget, every Tick except the completing one only decrements a counter, so
// the scheduler may skip up to budget-1 cycles and fast-forward the counter
// with SkipTicks. The completing Tick (stream-out, status write, interrupt)
// always executes for real.
func (k *Kernel) TickHorizon(now uint64) uint64 {
	if !k.busy || k.budget <= 1 {
		return now
	}
	return now + uint64(k.budget) - 1
}

// SkipTicks implements sim.TickHorizon.
func (k *Kernel) SkipTicks(n uint64) {
	if k.busy {
		k.budget -= int(n)
	}
}

// Idle reports whether the kernel (and its result stream) has quiesced.
func (k *Kernel) Idle() bool { return !k.busy && k.pl.Pcim.Idle() && k.pl.Irq.Idle() }

// Runs counts completed kernel invocations.
func (k *Kernel) Runs() int { return k.runs }

// Tick implements sim.Module.
func (k *Kernel) Tick() {
	if !k.busy {
		return
	}
	k.budget--
	if k.budget == 0 {
		k.busy = false
		k.runs++
		if k.Stream != nil {
			k.Stream(k.pl.Pcim)
		}
		k.pl.Regs.Set(RegStatus, 1)
		k.pl.RaiseIRQ(1)
	}
}

// computeApp is shared boilerplate for the nine compute applications: DMA
// the inputs in, run the kernel, DMA the outputs back, check the golden
// model.
type computeApp struct {
	name string
	desc string

	pl   *Plumbing
	kern *Kernel

	// hooks provided by the concrete app
	buildKernel func(a *computeApp)
	program     func(a *computeApp, cpu *shell.CPU)
	check       func(a *computeApp) error

	sys      *shell.System
	received []byte
}

// Name implements App.
func (a *computeApp) Name() string { return a.name }

// Description implements App.
func (a *computeApp) Description() string { return a.desc }

// Build implements App.
func (a *computeApp) Build(sys *shell.System) {
	a.sys = sys
	a.pl = BuildPlumbing(sys)
	a.kern = NewKernel(a.name+"-kernel", a.pl)
	a.buildKernel(a)
}

// Program implements App.
func (a *computeApp) Program(cpu *shell.CPU) { a.program(a, cpu) }

// DoneFPGA implements App.
func (a *computeApp) DoneFPGA() bool { return a.kern.Idle() }

// Check implements App.
func (a *computeApp) Check() error { return a.check(a) }

// runOnce is the standard host program: DMA input in, go, wait for the
// interrupt, DMA the output region back into a.received.
func (a *computeApp) runOnce(cpu *shell.CPU, input []byte, outBytes int) {
	t := cpu.NewThread(a.name + "-main")
	if len(input) > 0 {
		t.DMAWrite(InBase, input)
	}
	t.WriteReg(shell.OCL, RegGo, 1)
	t.WaitIRQ()
	if outBytes > 0 {
		t.DMARead(OutBase, outBytes, func(d []byte) { a.received = d })
	}
}

// card returns the card DRAM.
func (a *computeApp) card() *axi.Memory { return a.sys.CardDRAM }
