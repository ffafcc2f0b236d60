package apps

import (
	"encoding/binary"
	"fmt"

	"vidi/internal/axi"
	"vidi/internal/shell"
	"vidi/internal/sim"
)

// stressApp exercises every monitored interface concurrently — all three
// MMIO buses, both DMA buses and the interrupt line, driven by three CPU
// threads at once. It is not one of the paper's benchmarks; it exists to
// put maximal cross-channel concurrency through the monitors, encoder and
// replayers, where ordering bugs would surface.
//
// The FPGA side folds everything it observes into a running FNV-style
// checksum (order-sensitive by construction) and periodically streams the
// digest to host DRAM over pcim, raising an interrupt each time. The golden
// check verifies the final digest against a software model fed with the
// recorded arrival order.
type stressApp struct {
	rounds int

	sys  *shell.System
	pl   *Plumbing
	core *stressCore
}

const stressHostDigest = 0x9_0000

func init() {
	register("stress", func(scale int) App {
		return &stressApp{rounds: 6 * scale}
	})
}

// Name implements App.
func (a *stressApp) Name() string { return "stress" }

// Description implements App.
func (a *stressApp) Description() string {
	return "synthetic all-interface stress: concurrent MMIO+DMA+IRQ traffic"
}

// Build implements App.
func (a *stressApp) Build(sys *shell.System) {
	a.sys = sys
	a.pl = BuildPlumbing(sys)
	a.core = &stressCore{pl: a.pl}
	sys.Sim.Register(a.core)
	// Every MMIO write on any bus feeds the checksum, tagged by bus.
	hook := func(tag uint32) func(uint64, uint32) {
		return func(addr uint64, val uint32) {
			a.core.fold(tag, uint32(addr), val)
			if tag == 0 && addr == RegGo {
				a.core.flush()
			}
		}
	}
	a.pl.Regs.OnWrite = hook(0)
	a.pl.SDARegs.OnWrite = hook(1)
	a.pl.BAR1Regs.OnWrite = hook(2)
	// pcis writes land in card DRAM via the plumbing window; the core
	// folds each committed buffer on flush.
}

// Program implements App.
func (a *stressApp) Program(cpu *shell.CPU) {
	rng := sim.NewRand(0x57e55)
	t1 := cpu.NewThread("t1-dma")
	t2 := cpu.NewThread("t2-sda")
	t3 := cpu.NewThread("t3-bar1")
	for r := 0; r < a.rounds; r++ {
		buf := make([]byte, 256)
		rng.Read(buf)
		t1.DMAWrite(uint64(InBase+r*256), buf)
		t1.WriteReg(shell.OCL, RegParam0, uint32(r))
		t1.WriteReg(shell.OCL, RegGo, 1)
		t1.WaitIRQ()
		t1.DMARead(uint64(InBase+r*256), 64, nil)

		t2.WriteReg(shell.SDA, uint64(r*8), uint32(r*3+1))
		t2.ReadReg(shell.SDA, uint64(r*8), nil)
		t3.WriteReg(shell.BAR1, uint64(r*4), uint32(r*5+2))
		t3.Sleep(7)
	}
}

// DoneFPGA implements App.
func (a *stressApp) DoneFPGA() bool { return a.pl.Pcim.Idle() && a.pl.Irq.Idle() }

// Check implements App.
func (a *stressApp) Check() error {
	got := binary.LittleEndian.Uint32(a.sys.HostDRAM.Read(stressHostDigest+uint64((a.core.flushes-1)*4), 4))
	if got != a.core.digest {
		return fmt.Errorf("stress: host digest %#x, FPGA digest %#x", got, a.core.digest)
	}
	if a.core.flushes != a.rounds {
		return fmt.Errorf("stress: %d flushes, want %d", a.core.flushes, a.rounds)
	}
	// The digest must have incorporated every MMIO write (3 buses) and
	// every buffer.
	if a.core.folds < uint64(a.rounds*4) {
		return fmt.Errorf("stress: only %d folds", a.core.folds)
	}
	return nil
}

// stressCore folds observed traffic into an order-sensitive digest and
// streams snapshots to host DRAM.
type stressCore struct {
	sim.NullEval
	pl      *Plumbing
	digest  uint32
	folds   uint64
	flushes int
}

// Name implements sim.Module.
func (c *stressCore) Name() string { return "stress-core" }

func (c *stressCore) fold(tag, a, b uint32) {
	c.digest = (c.digest ^ (tag + 0x9e37)) * 16777619
	c.digest = (c.digest ^ a) * 16777619
	c.digest = (c.digest ^ b) * 16777619
	c.folds++
}

// flush folds the current round's DMA buffer (already in card DRAM), posts
// the digest to host DRAM over pcim, and raises an interrupt.
func (c *stressCore) flush() {
	r := c.flushes
	buf := make([]byte, 256)
	_ = c.pl.Sys.CardDRAM.ReadAt(uint64(InBase+r*256), buf)
	for i := 0; i < len(buf); i += 4 {
		c.fold(3, uint32(i), binary.LittleEndian.Uint32(buf[i:]))
	}
	out := make([]byte, 4)
	binary.LittleEndian.PutUint32(out, c.digest)
	c.pl.Pcim.Push(axi.WriteOp{Addr: stressHostDigest + uint64(r*4), Data: out})
	c.flushes++
	c.pl.RaiseIRQ(1)
}

// Tick implements sim.Module.
func (c *stressCore) Tick() {}

// TickWatch implements sim.TickSensitive: the core acts entirely from the
// register-file write hooks; its Tick is empty.
func (c *stressCore) TickWatch() []*sim.Channel { return nil }

// TickStable implements sim.TickSensitive: always stable, never ticked.
func (c *stressCore) TickStable() bool { return true }
