package shell

import (
	"bytes"
	"runtime"
	"testing"

	"vidi/internal/axi"
	"vidi/internal/sim"
	"vidi/internal/trace"
)

func TestBoundaryShape(t *testing.T) {
	sys := NewSystem(Config{Seed: 1})
	chans := sys.Boundary.Channels()
	if len(chans) != 26 {
		t.Fatalf("boundary has %d channels, want 26 (5 AXI interfaces + irq)", len(chans))
	}
	meta := sys.Boundary.Meta(false)
	// CPU-managed interfaces: AW/W/AR inputs, B/R outputs.
	for _, name := range []string{"ocl", "sda", "bar1", "pcis"} {
		for _, suffix := range []string{".AW", ".W", ".AR"} {
			ci := meta.ChannelByName(name + suffix)
			if ci < 0 || meta.Channels[ci].Dir != trace.Input {
				t.Fatalf("%s%s should be an input", name, suffix)
			}
		}
		for _, suffix := range []string{".B", ".R"} {
			ci := meta.ChannelByName(name + suffix)
			if ci < 0 || meta.Channels[ci].Dir != trace.Output {
				t.Fatalf("%s%s should be an output", name, suffix)
			}
		}
	}
	// pcim is FPGA-managed: roles flip.
	for _, suffix := range []string{".AW", ".W", ".AR"} {
		ci := meta.ChannelByName("pcim" + suffix)
		if meta.Channels[ci].Dir != trace.Output {
			t.Fatalf("pcim%s should be an output", suffix)
		}
	}
	for _, suffix := range []string{".B", ".R"} {
		ci := meta.ChannelByName("pcim" + suffix)
		if meta.Channels[ci].Dir != trace.Input {
			t.Fatalf("pcim%s should be an input", suffix)
		}
	}
	if ci := meta.ChannelByName("irq"); ci < 0 || meta.Channels[ci].Dir != trace.Output {
		t.Fatal("irq should be an output channel")
	}
}

func TestReplayModeOmitsEnvironment(t *testing.T) {
	sys := NewSystem(Config{Replay: true, Seed: 1})
	if sys.CPU != nil {
		t.Fatal("replay-mode system must not build the CPU agent")
	}
	if !sys.Quiesced() {
		t.Fatal("replay-mode system should report quiesced environment")
	}
}

// passthrough wires env and app sides together so CPU traffic reaches the
// FPGA-side endpoints in these tests (in production the Vidi shim does it).
type passthrough struct{ sys *System }

func (p *passthrough) Name() string { return "passthrough" }
func (p *passthrough) Eval() {
	for _, bc := range p.sys.Boundary.Channels() {
		if bc.Info.Dir == trace.Input {
			bc.App.Valid.Set(bc.Env.Valid.Get())
			bc.App.Data.Set(bc.Env.Data.Get())
			bc.Env.Ready.Set(bc.App.Ready.Get())
		} else {
			bc.Env.Valid.Set(bc.App.Valid.Get())
			bc.Env.Data.Set(bc.App.Data.Get())
			bc.App.Ready.Set(bc.Env.Ready.Get())
		}
	}
}
func (p *passthrough) Tick() {}

func buildLoop(t *testing.T, seed int64) (*System, *axi.RegSubordinate, map[uint64]uint32) {
	t.Helper()
	sys := NewSystem(Config{Seed: seed, JitterMax: 4})
	sys.Sim.Register(&passthrough{sys: sys})
	regs := map[uint64]uint32{}
	sub := axi.NewRegSubordinate("regs", sys.OCL)
	sub.OnWrite = func(addr uint64, val uint32) { regs[addr] = val }
	sub.OnRead = func(addr uint64) uint32 { return regs[addr] }
	sys.Sim.Register(sub)
	// pcis window into card DRAM for DMA tests.
	win := axi.NewMemSubordinate("pcis-window", sys.PCIS, sys.CardDRAM)
	sys.Sim.Register(win)
	return sys, sub, regs
}

func TestCPURegisterAndDMAOps(t *testing.T) {
	sys, _, regs := buildLoop(t, 3)
	var readVal uint32
	var dmaBack []byte
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i * 3)
	}
	th := sys.CPU.NewThread("main")
	th.WriteReg(OCL, 0x20, 0xfeed)
	th.ReadReg(OCL, 0x20, func(v uint32) { readVal = v })
	th.DMAWrite(0x1000, data)
	th.DMARead(0x1000, len(data), func(d []byte) { dmaBack = d })
	if _, err := sys.Sim.Run(50000, sys.CPU.Done); err != nil {
		t.Fatal(err)
	}
	if regs[0x20] != 0xfeed || readVal != 0xfeed {
		t.Fatalf("reg write/read: stored %#x read %#x", regs[0x20], readVal)
	}
	if !bytes.Equal(dmaBack, data) {
		t.Fatal("DMA round trip corrupted data")
	}
	if !bytes.Equal(sys.CardDRAM.Read(0x1000, 300), data) {
		t.Fatal("DMA write did not land in card DRAM")
	}
}

func TestCPUPollLoops(t *testing.T) {
	sys, sub, regs := buildLoop(t, 5)
	// The register flips to 1 after 400 cycles, via a side module.
	flip := &delayedFlip{regs: regs, at: 400, sys: sys}
	sys.Sim.Register(flip)
	_ = sub
	polls := 0
	th := sys.CPU.NewThread("poller")
	th.Poll(OCL, 0x0, 50, func(v uint32) bool { polls++; return v == 1 })
	if _, err := sys.Sim.Run(50000, sys.CPU.Done); err != nil {
		t.Fatal(err)
	}
	if polls < 2 {
		t.Fatalf("expected several polls before the flip, got %d", polls)
	}
}

type delayedFlip struct {
	regs map[uint64]uint32
	at   uint64
	sys  *System
}

func (d *delayedFlip) Name() string { return "flip" }
func (d *delayedFlip) Eval()        {}
func (d *delayedFlip) Tick() {
	if d.sys.Sim.Cycle() == d.at {
		d.regs[0] = 1
	}
}

func TestCPUWaitIRQAndThreads(t *testing.T) {
	sys, _, regs := buildLoop(t, 7)
	// FPGA side: raise an interrupt when register 0 is written.
	irqSend := &irqOnWrite{sys: sys, regs: regs}
	sys.Sim.Register(irqSend)

	order := []string{}
	t1 := sys.CPU.NewThread("t1")
	t1.WaitIRQ()
	t1.Call(func() { order = append(order, "t1-after-irq") })
	t2 := sys.CPU.NewThread("t2")
	t2.Sleep(100)
	t2.Call(func() { order = append(order, "t2-before-write") })
	t2.WriteReg(OCL, 0, 1)
	if _, err := sys.Sim.Run(50000, sys.CPU.Done); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "t2-before-write" || order[1] != "t1-after-irq" {
		t.Fatalf("thread interleaving wrong: %v", order)
	}
	if sys.IRQReceived != 1 {
		t.Fatalf("IRQs received: %d", sys.IRQReceived)
	}
}

type irqOnWrite struct {
	sys    *System
	regs   map[uint64]uint32
	active bool
	sent   bool
}

func (q *irqOnWrite) Name() string { return "irq-on-write" }
func (q *irqOnWrite) Eval() {
	q.sys.IRQ.Valid.Set(q.active)
	if q.active {
		q.sys.IRQ.Data.Set([]byte{1, 0})
	}
}
func (q *irqOnWrite) Tick() {
	if q.active && q.sys.IRQ.Fired() {
		q.active = false
	}
	if !q.sent && q.regs[0] == 1 {
		q.sent = true
		q.active = true
	}
}

func TestPCIMWritesReachHostDRAM(t *testing.T) {
	sys, _, _ := buildLoop(t, 9)
	wm := axi.NewWriteManager("fpga-writer", sys.PCIM)
	sys.Sim.Register(wm)
	payload := make([]byte, 128)
	for i := range payload {
		payload[i] = byte(200 - i)
	}
	done := false
	wm.Push(axi.WriteOp{Addr: 0x2000, Data: payload, Done: func(uint8) { done = true }})
	if _, err := sys.Sim.Run(50000, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sys.HostDRAM.Read(0x2000, 128), payload) {
		t.Fatal("pcim write did not reach host DRAM")
	}
}

func TestSeededJitterVariesTiming(t *testing.T) {
	run := func(seed int64) uint64 {
		sys, _, _ := buildLoop(t, seed)
		th := sys.CPU.NewThread("m")
		for i := 0; i < 10; i++ {
			th.WriteReg(OCL, uint64(i*4), uint32(i))
		}
		cycles, err := sys.Sim.Run(50000, sys.CPU.Done)
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	a1, a2 := run(11), run(11)
	if a1 != a2 {
		t.Fatalf("same seed produced different timings: %d vs %d", a1, a2)
	}
	distinct := map[uint64]bool{a1: true}
	for _, seed := range []int64{12, 99, 31337, 271828} {
		distinct[run(seed)] = true
	}
	if len(distinct) < 2 {
		t.Fatal("five seeds produced identical timing (no jitter)")
	}
}

// TestSameSeedIdenticalWaveforms is the determinism audit for the CPU's
// randomness plumbing: every jitter consumer (per-thread issue jitter, DMA
// gap policies) draws from a rand stream derived from Config.Seed, never
// from a shared or global source. Two systems built from the same seed and
// running the same multi-threaded program must therefore produce bit-exact
// boundary waveforms — not just equal cycle counts — while a different seed
// must move at least one edge.
func TestSameSeedIdenticalWaveforms(t *testing.T) {
	run := func(seed int64) []byte {
		sys, _, regs := buildLoop(t, seed)
		irqSend := &irqOnWrite{sys: sys, regs: regs}
		sys.Sim.Register(irqSend)
		var buf bytes.Buffer
		vcd := sim.NewVCDWriter(sys.Sim, &buf)
		for _, bc := range sys.Boundary.Channels() {
			vcd.AddChannel(bc.Env)
		}
		sys.Sim.Register(vcd)

		data := make([]byte, 256)
		for i := range data {
			data[i] = byte(i ^ 0x5a)
		}
		t1 := sys.CPU.NewThread("dma")
		t1.DMAWrite(0x800, data)
		t1.WriteReg(OCL, 0, 1)
		t2 := sys.CPU.NewThread("regs")
		for i := 0; i < 8; i++ {
			t2.WriteReg(OCL, uint64(0x40+i*4), uint32(i))
		}
		t2.WaitIRQ()
		if _, err := sys.Sim.Run(50000, sys.CPU.Done); err != nil {
			t.Fatal(err)
		}
		if err := vcd.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(21), run(21)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different boundary waveforms")
	}
	if c := run(22); bytes.Equal(a, c) {
		t.Fatal("different seed produced identical waveforms (jitter not seeded)")
	}
}

// TestNewSystemAllocatesLittle guards the sparse DRAM models: building a
// system allocates the page tables, not the 8 MiB two dense 4 MiB memories
// would zero.
func TestNewSystemAllocatesLittle(t *testing.T) {
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		NewSystem(Config{Seed: int64(i)})
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 256<<10 {
		t.Fatalf("NewSystem allocated %d B per call, want < %d", per, 256<<10)
	}
}
