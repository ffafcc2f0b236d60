// Package shell models the AWS EC2 F1 platform surrounding an FPGA
// application: the CPU host agent, the five AXI interfaces of the F1 shell
// (three AXI-Lite MMIO buses — ocl, sda, bar1 — and two 512-bit DMA buses —
// pcis for CPU→FPGA and pcim for FPGA→CPU), a user interrupt line, CPU-side
// DRAM, on-card DRAM behind an internal DDR interface, and a shared PCIe
// bandwidth model.
//
// Every shell interface crosses Vidi's record/replay boundary as a pair of
// channels (environment side / FPGA side) registered with a core.Boundary,
// exactly as the paper's shim interposes between the AWS shell and the user
// accelerator.
package shell

import (
	"vidi/internal/axi"
	"vidi/internal/core"
	"vidi/internal/sim"
	"vidi/internal/telemetry"
	"vidi/internal/trace"
)

// Interface bit widths on F1 as monitored by Vidi, used by the resource
// model and the §6 bandwidth analysis. An AXI-Lite interface monitors 136
// bits; a 512-bit AXI interface monitors 1324 bits; all five total 3056.
const (
	LiteMonitoredBits = 136
	FullMonitoredBits = 1324
)

// dramBytes is the size of host DRAM and of card DRAM. Both are sparse: a
// page costs memory only once something writes it.
const dramBytes = 4 << 20

// pcieBytesPerCycle is the shared PCIe link bandwidth: ≈7 GB/s at 250 MHz,
// full-duplex approximated as one bucket.
const pcieBytesPerCycle = 28

// Config sizes a System.
type Config struct {
	// Replay builds the system without the environment side (CPU agent and
	// host engines): the channel replayers take the environment's place.
	Replay bool
	// Seed drives all environment-side timing jitter.
	Seed int64
	// JitterMax bounds the CPU agent's random inter-op delays.
	JitterMax int
	// Telemetry, when non-nil, receives the shell's metrics (DMA bursts and
	// beats per engine, CPU jitter draws, interrupts delivered) and, with
	// tracing armed, per-engine and per-CPU-thread span tracks. Purely
	// observational: simulation behaviour is identical with or without it.
	Telemetry *telemetry.Sink
}

// System is one assembled platform instance.
type System struct {
	Sim      *sim.Simulator
	Boundary *core.Boundary
	Cfg      Config

	// FPGA-side interfaces the application attaches to.
	OCL  *axi.Interface
	SDA  *axi.Interface
	BAR1 *axi.Interface
	PCIS *axi.Interface
	PCIM *axi.Interface
	IRQ  *sim.Channel

	// Environment-side twins (driven by the CPU agent or by replayers).
	EnvOCL  *axi.Interface
	EnvSDA  *axi.Interface
	EnvBAR1 *axi.Interface
	EnvPCIS *axi.Interface
	EnvPCIM *axi.Interface
	EnvIRQ  *sim.Channel

	// DDR is the internal on-card DRAM interface (FPGA is the manager).
	// It does not cross the boundary by default — replaying the shell
	// interfaces recreates DDR traffic (§4.1) — but examples/custom-boundary
	// shows how to monitor it.
	DDR    *axi.Interface
	DDRSub *axi.MemSubordinate

	HostDRAM *axi.Memory
	CardDRAM *axi.Memory
	PCIe     *axi.TokenBucket

	CPU *CPU
	// IRQReceived counts interrupts delivered to the environment.
	IRQReceived int

	// Environment-side engines (nil in replay mode).
	hostMem *axi.MemSubordinate

	Checker *axi.ProtocolChecker
}

// liteBuses returns the three MMIO bus names in order.
func liteBuses() []string { return []string{"ocl", "sda", "bar1"} }

// NewSystem builds a platform instance.
func NewSystem(cfg Config) *System {
	s := sim.New()
	sys := &System{
		Sim:      s,
		Boundary: core.NewBoundary(),
		Cfg:      cfg,
		HostDRAM: axi.NewMemory(dramBytes),
		CardDRAM: axi.NewMemory(dramBytes),
		PCIe:     axi.NewTokenBucket("pcie", pcieBytesPerCycle, 512),
	}
	s.Register(sys.PCIe)

	sys.OCL, sys.EnvOCL = axi.NewLite(s, "ocl"), axi.NewLite(s, "env.ocl")
	sys.SDA, sys.EnvSDA = axi.NewLite(s, "sda"), axi.NewLite(s, "env.sda")
	sys.BAR1, sys.EnvBAR1 = axi.NewLite(s, "bar1"), axi.NewLite(s, "env.bar1")
	sys.PCIS, sys.EnvPCIS = axi.NewFull(s, "pcis"), axi.NewFull(s, "env.pcis")
	sys.PCIM, sys.EnvPCIM = axi.NewFull(s, "pcim"), axi.NewFull(s, "env.pcim")
	sys.IRQ = s.NewChannel("irq", 2)
	sys.EnvIRQ = s.NewChannel("env.irq", 2)

	// Declare the boundary: channel order is ocl, sda, bar1, pcis, pcim
	// (AW, W, B, AR, R each), then irq — 26 channels.
	addIface := func(name string, env, app *axi.Interface, fpgaManager bool) {
		dir := func(out bool) trace.Direction {
			if out {
				return trace.Output
			}
			return trace.Input
		}
		// For a CPU-managed interface, AW/W/AR are FPGA inputs and B/R are
		// outputs; for an FPGA-managed interface (pcim) the roles flip.
		sys.Boundary.MustAdd(trace.ChannelInfo{Name: name + ".AW", Interface: name, Width: env.AW.Width(), Dir: dir(fpgaManager)}, env.AW, app.AW)
		sys.Boundary.MustAdd(trace.ChannelInfo{Name: name + ".W", Interface: name, Width: env.W.Width(), Dir: dir(fpgaManager)}, env.W, app.W)
		sys.Boundary.MustAdd(trace.ChannelInfo{Name: name + ".B", Interface: name, Width: env.B.Width(), Dir: dir(!fpgaManager)}, env.B, app.B)
		sys.Boundary.MustAdd(trace.ChannelInfo{Name: name + ".AR", Interface: name, Width: env.AR.Width(), Dir: dir(fpgaManager)}, env.AR, app.AR)
		sys.Boundary.MustAdd(trace.ChannelInfo{Name: name + ".R", Interface: name, Width: env.R.Width(), Dir: dir(!fpgaManager)}, env.R, app.R)
	}
	addIface("ocl", sys.EnvOCL, sys.OCL, false)
	addIface("sda", sys.EnvSDA, sys.SDA, false)
	addIface("bar1", sys.EnvBAR1, sys.BAR1, false)
	addIface("pcis", sys.EnvPCIS, sys.PCIS, false)
	addIface("pcim", sys.EnvPCIM, sys.PCIM, true)
	sys.Boundary.MustAdd(trace.ChannelInfo{Name: "irq", Interface: "irq", Width: 2, Dir: trace.Output}, sys.EnvIRQ, sys.IRQ)

	// Internal DDR interface: FPGA manager, card DRAM subordinate.
	sys.DDR = axi.NewFull(s, "ddr")
	sys.DDRSub = axi.NewMemSubordinate("ddr-ctrl", sys.DDR, sys.CardDRAM)
	rng := sim.NewRand(cfg.Seed ^ 0x5eed)
	sys.DDRSub.RespDelay = func() int { return 2 + rng.Intn(3) } // DRAM latency
	s.Register(sys.DDRSub)

	// Protocol checker over all boundary channels (app side).
	sys.Checker = axi.NewProtocolChecker("axi-protocol")
	for _, bc := range sys.Boundary.Channels() {
		sys.Checker.Add(bc.App)
	}
	sys.Checker.Install(s)

	if !cfg.Replay {
		sys.buildEnvironment()
	}
	if cfg.Telemetry != nil {
		sys.bindTelemetry(cfg.Telemetry)
	}
	return sys
}

// buildEnvironment constructs the CPU agent and host-side engines.
func (sys *System) buildEnvironment() {
	s := sys.Sim
	// Host memory responds to the FPGA's pcim traffic, sharing the PCIe
	// link.
	sys.hostMem = axi.NewMemSubordinate("host-dram", sys.EnvPCIM, sys.HostDRAM)
	sys.hostMem.Link = sys.PCIe
	rng := sim.NewRand(sys.Cfg.Seed ^ 0x40357)
	sys.hostMem.RespDelay = func() int { return 4 + rng.Intn(8) } // PCIe round trip jitter
	s.Register(sys.hostMem)

	// Interrupt receiver.
	irqRecv := &irqSink{sys: sys}
	s.Register(irqRecv)

	sys.CPU = newCPU(sys)
	s.Register(sys.CPU)
}

// irqSink accepts interrupt transactions on the environment side.
type irqSink struct{ sys *System }

func (k *irqSink) Name() string { return "irq-sink" }
func (k *irqSink) Eval()        { k.sys.EnvIRQ.Ready.Set(true) }

// Sensitivity implements sim.Sensitive; the sink unconditionally asserts
// READY, so it is a constant driver and always stable.
func (k *irqSink) Sensitivity() sim.Sensitivity {
	return sim.Sensitivity{Drives: k.sys.EnvIRQ.ReceiverSignals()}
}
func (k *irqSink) EvalStable() bool { return true }

func (k *irqSink) Tick() {
	if k.sys.EnvIRQ.Fired() {
		k.sys.IRQReceived++
	}
}

// TickWatch implements sim.TickSensitive: the sink only counts interrupt
// handshakes. It ticks before the CPU (registration order), so a delivery
// is visible to WaitIRQ in the same cycle, as on the legacy kernel.
func (k *irqSink) TickWatch() []*sim.Channel { return []*sim.Channel{k.sys.EnvIRQ} }

// TickStable implements sim.TickSensitive.
func (k *irqSink) TickStable() bool { return true }

// Quiesced reports whether the environment has no outstanding work: every
// CPU thread finished and all host engines are idle.
func (sys *System) Quiesced() bool {
	return sys.CPU == nil || sys.CPU.Done()
}
