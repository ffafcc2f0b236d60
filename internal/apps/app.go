// Package apps implements the ten FPGA applications of the paper's
// evaluation (Table 1) as simulated accelerators: the AWS DRAM-DMA example,
// the six Rosetta benchmarks (3D rendering, BNN, digit recognition, face
// detection, spam filtering, optical flow), and the three open-source
// accelerators (SSSP, SHA-256, MobileNet-style CNN).
//
// Every application does its real computation (verified against a software
// golden model) and exercises the shell's AXI interfaces with its own
// characteristic transaction pattern — DMA-heavy, MMIO-heavy, or
// compute-bound — which is what the efficiency experiments measure.
package apps

import (
	"fmt"
	"sort"

	"vidi/internal/axi"
	"vidi/internal/shell"
	"vidi/internal/sim"
)

// App is one benchmark application.
type App interface {
	// Name is the short identifier used in tables (e.g. "dma", "sssp").
	Name() string
	// Description is a one-line summary.
	Description() string
	// Build instantiates the FPGA-side design and registers its modules.
	Build(sys *shell.System)
	// Program enqueues the CPU-side script. Not called in replay mode.
	Program(cpu *shell.CPU)
	// DoneFPGA reports whether the FPGA side has quiesced.
	DoneFPGA() bool
	// Check verifies the run's results against the golden model. Only
	// meaningful after a recorded (non-replay) run.
	Check() error
}

// Factory builds a fresh App configured for a workload scale. Scale 1 is
// the default evaluation size; smaller values shrink the workload for quick
// tests.
type Factory func(scale int) App

var registry = map[string]Factory{}
var order []string

// register adds a factory under its canonical name.
func register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic("apps: duplicate registration of " + name)
	}
	registry[name] = f
	order = append(order, name)
}

// New builds the named app at the given scale.
func New(name string, scale int) (App, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown application %q (have %v)", name, Names())
	}
	if scale < 1 {
		scale = 1
	}
	return f(scale), nil
}

// Names lists the registered applications in Table 1 order.
func Names() []string {
	out := append([]string(nil), order...)
	// Registration order follows file init order; pin the canonical order.
	canon := []string{"dma", "render3d", "bnn", "digitr", "faced", "spamf", "opflw", "sssp", "sha", "mnet"}
	pos := map[string]int{}
	for i, n := range canon {
		pos[n] = i
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, iok := pos[out[i]]
		pj, jok := pos[out[j]]
		if iok && jok {
			return pi < pj
		}
		return iok
	})
	return out
}

// Card DRAM layout shared by the applications.
const (
	// InBase is where CPU→FPGA DMA input lands.
	InBase = 0x10_0000
	// OutBase is where kernels place their results.
	OutBase = 0x20_0000
	// AuxBase holds secondary inputs (weights, training sets, ...).
	AuxBase = 0x30_0000
)

// Control register addresses on the ocl bus.
const (
	RegGo     = 0x00 // write 1 to start the kernel
	RegStatus = 0x04 // 0 = busy, 1 = done
	RegParam0 = 0x10
	RegParam1 = 0x14
	RegParam2 = 0x18
	RegResult = 0x20 // small scalar results
)

// Plumbing is the FPGA-side boilerplate shared by the applications: an ocl
// register file, a pcis window into card DRAM, a pcim write engine toward
// host DRAM, and an interrupt sender. sda and bar1 get default register
// files so stray traffic always completes.
type Plumbing struct {
	Sys  *shell.System
	Regs *Regs
	// SDARegs and BAR1Regs serve the secondary MMIO buses; applications
	// that use them (e.g. the stress app) install hooks.
	SDARegs  *Regs
	BAR1Regs *Regs
	// PcisMem exposes card DRAM to CPU DMA.
	PcisMem *axi.MemSubordinate
	// Pcim writes results to host DRAM.
	Pcim *axi.WriteManager
	// Irq raises user interrupts.
	Irq *sim.Sender
}

// BuildPlumbing attaches the standard plumbing to sys.
func BuildPlumbing(sys *shell.System) *Plumbing {
	p := &Plumbing{Sys: sys}
	p.Regs = NewRegs("ocl-regs", sys.OCL)
	sys.Sim.Register(p.Regs.Sub)
	p.SDARegs = NewRegs("sda-regs", sys.SDA)
	p.BAR1Regs = NewRegs("bar1-regs", sys.BAR1)
	sys.Sim.Register(p.SDARegs.Sub, p.BAR1Regs.Sub)
	// Note: the pcis window must NOT consult the shared PCIe bucket — that
	// state lives on the environment side of the boundary (the CPU-side
	// engines meter it), and an FPGA-side module whose readiness depended
	// on it would be cycle-dependent behaviour that breaks replay.
	p.PcisMem = axi.NewMemSubordinate("pcis-window", sys.PCIS, sys.CardDRAM)
	sys.Sim.Register(p.PcisMem)
	p.Pcim = axi.NewWriteManager("pcim-writer", sys.PCIM)
	sys.Sim.Register(p.Pcim)
	p.Irq = sim.NewSender("irq-sender", sys.IRQ)
	sys.Sim.Register(p.Irq)
	return p
}

// RaiseIRQ sends one interrupt transaction carrying the vector number.
func (p *Plumbing) RaiseIRQ(vector uint8) { p.Irq.Push([]byte{vector, 0}) }

// Regs is an MMIO register file with store/load hooks.
type Regs struct {
	Sub  *axi.RegSubordinate
	Vals map[uint64]uint32
	// OnWrite, if non-nil, observes every register store (after the value
	// lands).
	OnWrite func(addr uint64, val uint32)
	// OnRead, if non-nil, overrides register loads.
	OnRead func(addr uint64) (uint32, bool)
}

// NewRegs creates a register file served on the given Lite interface.
func NewRegs(name string, iface *axi.Interface) *Regs {
	r := &Regs{Vals: map[uint64]uint32{}}
	r.Sub = axi.NewRegSubordinate(name, iface)
	r.Sub.OnWrite = func(addr uint64, val uint32) {
		r.Vals[addr] = val
		if r.OnWrite != nil {
			r.OnWrite(addr, val)
		}
	}
	r.Sub.OnRead = func(addr uint64) uint32 {
		if r.OnRead != nil {
			if v, ok := r.OnRead(addr); ok {
				return v
			}
		}
		return r.Vals[addr]
	}
	return r
}

// Set stores a register value directly (kernel side).
func (r *Regs) Set(addr uint64, val uint32) { r.Vals[addr] = val }

// Get loads a register value directly (kernel side).
func (r *Regs) Get(addr uint64) uint32 { return r.Vals[addr] }
