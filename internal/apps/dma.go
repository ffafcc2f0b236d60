package apps

import (
	"bytes"
	"fmt"

	"vidi/internal/axi"
	"vidi/internal/shell"
	"vidi/internal/sim"
)

// dmaApp reproduces the AWS F1 DRAM-DMA example application: the CPU DMA-
// writes task buffers into card DRAM over pcis, kicks the kernel via an ocl
// register, and the kernel copies each buffer to an output region —
// small buffers through an on-chip fast path, large ones through the
// internal DDR interface. Completion is signalled either by a status
// register the CPU polls — the cycle-dependent construct behind the paper's
// only replay divergence (§3.6): a replayed poll can land before the copy
// completes even though the recorded poll landed after — or, in the patched
// variant, by a cycle-independent user interrupt.
//
// Only the occasional large (DDR-path) task is slow enough for a replayed
// poll to outrun, so the divergence rate is low and proportional to the
// large-task fraction, mirroring the paper's "about one divergence per
// million transactions, all caused by the same polling logic".
type dmaApp struct {
	interrupts bool // the 10-line patch: interrupt instead of polling
	tasks      int

	sys  *shell.System
	pl   *Plumbing
	kern *dmaKernel

	sent     [][]byte
	received [][]byte
}

const (
	dmaPollInterval = 300
	dmaSmallBytes   = 64
	dmaLargeBytes   = 4096
	dmaLargeEvery   = 16 // every n-th task takes the DDR path
)

func init() {
	register("dma", func(scale int) App {
		return &dmaApp{tasks: 16 * scale}
	})
	register("dma-irq", func(scale int) App {
		return &dmaApp{interrupts: true, tasks: 16 * scale}
	})
}

func (a *dmaApp) taskBytes(task int) int {
	if task%dmaLargeEvery == dmaLargeEvery-1 {
		return dmaLargeBytes
	}
	return dmaSmallBytes
}

// Name implements App.
func (a *dmaApp) Name() string {
	if a.interrupts {
		return "dma-irq"
	}
	return "dma"
}

// Description implements App.
func (a *dmaApp) Description() string {
	if a.interrupts {
		return "DRAM DMA example (interrupt completion, divergence-free patch)"
	}
	return "DRAM DMA example (polling completion)"
}

// Build implements App.
func (a *dmaApp) Build(sys *shell.System) {
	a.sys = sys
	a.pl = BuildPlumbing(sys)
	a.kern = newDMAKernel(a.pl, a.interrupts)
	sys.Sim.Register(a.kern)
	a.pl.Regs.OnWrite = func(addr uint64, val uint32) {
		if addr == RegGo && val == 1 {
			a.kern.start(
				uint64(a.pl.Regs.Get(RegParam0)),
				uint64(a.pl.Regs.Get(RegParam1)),
				int(a.pl.Regs.Get(RegParam2)),
			)
		}
	}
}

// Program implements App.
func (a *dmaApp) Program(cpu *shell.CPU) {
	rng := sim.NewRand(0xd0a + int64(a.tasks))
	t := cpu.NewThread("dma-main")
	off := 0
	for task := 0; task < a.tasks; task++ {
		n := a.taskBytes(task)
		buf := make([]byte, n)
		rng.Read(buf)
		a.sent = append(a.sent, buf)
		src := uint64(InBase + off)
		dst := uint64(OutBase + off)
		off += n
		t.DMAWrite(src, buf)
		t.WriteReg(shell.OCL, RegParam0, uint32(src))
		t.WriteReg(shell.OCL, RegParam1, uint32(dst))
		t.WriteReg(shell.OCL, RegParam2, uint32(n))
		t.WriteReg(shell.OCL, RegGo, 1)
		if a.interrupts {
			t.WaitIRQ()
		} else {
			t.Poll(shell.OCL, RegStatus, dmaPollInterval, func(v uint32) bool { return v == 1 })
		}
		t.DMARead(dst, n, func(d []byte) {
			a.received = append(a.received, d)
		})
	}
}

// DoneFPGA implements App.
func (a *dmaApp) DoneFPGA() bool { return a.kern.idle() && a.pl.Pcim.Idle() && a.pl.Irq.Idle() }

// Check implements App.
func (a *dmaApp) Check() error {
	if len(a.received) != a.tasks {
		return fmt.Errorf("dma: received %d of %d task buffers", len(a.received), a.tasks)
	}
	for i := range a.sent {
		if !bytes.Equal(a.sent[i], a.received[i]) {
			return fmt.Errorf("dma: task %d read-back differs from data written", i)
		}
	}
	return nil
}

// dmaKernel copies [src, src+n) to [dst, dst+n) in card DRAM. Buffers up to
// one beat use a single-cycle on-chip fast path; larger buffers stream
// through the internal DDR interface beat by beat, so that replaying the
// shell interfaces genuinely recreates DDR traffic (§4.1).
type dmaKernel struct {
	sim.NullEval
	pl         *Plumbing
	interrupts bool
	rd         *axi.ReadManager
	wr         *axi.WriteManager

	busy     bool
	src, dst uint64
	left     int
	inFlight int
	started  bool

	tickWake func()
}

func newDMAKernel(pl *Plumbing, interrupts bool) *dmaKernel {
	k := &dmaKernel{pl: pl, interrupts: interrupts}
	k.rd = axi.NewReadManager("dma-kernel-rd", pl.Sys.DDR)
	k.wr = axi.NewWriteManager("dma-kernel-wr", pl.Sys.DDR)
	pl.Sys.Sim.Register(k.rd, k.wr)
	return k
}

// Name implements sim.Module.
func (k *dmaKernel) Name() string { return "dma-kernel" }

func (k *dmaKernel) start(src, dst uint64, n int) {
	k.busy = true
	k.started = false
	k.src, k.dst, k.left = src, dst, n
	k.pl.Regs.Set(RegStatus, 0)
	if k.tickWake != nil {
		k.tickWake()
	}
}

func (k *dmaKernel) idle() bool { return !k.busy }

// TickWatch implements sim.TickSensitive: woken by the register write hook.
func (k *dmaKernel) TickWatch() []*sim.Channel { return nil }

// TickStable implements sim.TickSensitive: a copy in progress issues beats
// and checks completion every cycle; an idle kernel sleeps until start.
func (k *dmaKernel) TickStable() bool { return !k.busy }

// BindTickWake implements sim.TickWakeable. The register hook fires from the
// register subordinate's Tick, which precedes this module in
// registration order, so the woken Tick lands in the same cycle as on the
// legacy kernel.
func (k *dmaKernel) BindTickWake(wake func()) { k.tickWake = wake }

// Tick implements sim.Module.
func (k *dmaKernel) Tick() {
	if !k.busy {
		return
	}
	if !k.started {
		k.started = true
		if k.left <= axi.FullDataBytes {
			// Fast path: on-chip copy, completes this cycle.
			buf := make([]byte, k.left)
			if err := k.pl.Sys.CardDRAM.ReadAt(k.src, buf); err == nil {
				_ = k.pl.Sys.CardDRAM.WriteAt(k.dst, buf)
			}
			k.left = 0
			k.finish()
			return
		}
	}
	// DDR path: issue one beat per cycle, bounded outstanding.
	if k.left > 0 && k.inFlight < 8 {
		n := axi.FullDataBytes
		if k.left < n {
			n = k.left
		}
		src, dst := k.src, k.dst
		k.src += uint64(n)
		k.dst += uint64(n)
		k.left -= n
		k.inFlight++
		k.rd.Push(axi.ReadOp{Addr: src, Beats: 1, Done: func(data []byte, _ uint8) {
			k.wr.Push(axi.WriteOp{Addr: dst, Data: data[:n], Done: func(uint8) {
				k.inFlight--
			}})
		}})
	}
	if k.left == 0 && k.inFlight == 0 && k.busy && k.started {
		k.finish()
	}
}

func (k *dmaKernel) finish() {
	k.busy = false
	k.pl.Regs.Set(RegStatus, 1)
	if k.interrupts {
		k.pl.RaiseIRQ(1)
	}
}
