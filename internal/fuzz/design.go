package fuzz

import (
	"encoding/binary"
	"fmt"

	"vidi/internal/axi"
	"vidi/internal/bugs"
	"vidi/internal/design"
	"vidi/internal/shell"
	"vidi/internal/sim"
)

// OutBase is where the pipeline's write-back lands in host DRAM.
const OutBase = 0x20_0000

// fragBytes is the payload width of one pipeline fragment.
const fragBytes = 4

// pipeline instantiates a Scenario's FPGA-side design on a shell system:
//
//	pcis → front → FrameFIFO → pump → [fifo stages…] → (graph) → drain → (filter) → pcim
//
// The CPU DMA-writes frames over pcis; the front splits each 512-bit beat
// into sixteen 32-bit fragments and pushes whole frames into a FrameFIFO
// (the §5.2 case-study component); once started via an OCL register write
// the pump drains fragments into a chain of generic FIFO stages and then,
// when the scenario carries one, through a compiled dataflow graph
// (internal/design); the drain reassembles 64-byte chunks and writes them
// back to host DRAM over pcim, optionally through the §5.3 atop filter.
// Completion raises one interrupt.
type pipeline struct {
	sc   *Scenario
	sys  *shell.System
	fifo *bugs.FrameFIFO

	front  *front
	pump   *pump
	drain  *drain
	writer *axi.WriteManager
	filter *bugs.AtopFilter
	irq    *sim.Sender
	inst   *design.Instance

	// Sent is the payload T1 DMA-writes; the data oracles predict host DRAM
	// at OutBase from it after a record run.
	Sent []byte
}

// newDesign builds the pipeline onto sys. The scenario must be valid.
func newDesign(sc *Scenario, sys *shell.System) *pipeline {
	d := &pipeline{sc: sc, sys: sys}
	s := sys.Sim

	d.fifo = bugs.NewFrameFIFO(sc.FIFOFrags, sc.FIFOBuggy)

	ctl := &ctrl{}
	regs := axi.NewRegSubordinate("fz-regs", sys.OCL)
	regs.OnWrite = func(addr uint64, val uint32) {
		if addr == 0 && val == 1 {
			ctl.started = true
		}
	}
	regs.OnRead = func(addr uint64) uint32 { return 0 }
	s.Register(regs)

	d.front = &front{iface: sys.PCIS, fifo: d.fifo}
	s.Register(d.front)

	// Fragment chain: pump → sender → [fifo stages…] → tail channel.
	ch := s.NewChannel("fz.chain0", fragBytes)
	head := sim.NewSender("fz-head", ch)
	s.Register(head)
	for i, depth := range sc.Stages {
		next := s.NewChannel(fmt.Sprintf("fz.chain%d", i+1), fragBytes)
		s.Register(sim.NewFifo(fmt.Sprintf("fz-stage%d", i), ch, next, depth))
		ch = next
	}

	d.pump = &pump{ctl: ctl, fifo: d.fifo, out: head, rate: sc.DrainRate}
	s.Register(d.pump)

	// Compiled dataflow graph between the FIFO chain and the drain. The
	// fragments become its rate-1 token stream; the drain consumes its
	// output channel instead of the chain tail.
	if sc.Graph != nil {
		gout := s.NewChannel("fz.gout", fragBytes)
		d.inst = sc.Graph.Compile(s, ch, gout, design.CompileOptions{
			Prefix:       "fzg",
			BugLoopInit:  sc.BugLoopInit,
			BugJoinOrder: sc.BugJoinOrder,
		})
		ch = gout
	}

	// Write-back target: pcim directly, or through the atop filter.
	target := sys.PCIM
	if sc.Filter != "" {
		internal := axi.NewFull(s, "fz-int")
		d.filter = bugs.NewAtopFilter(internal, sys.PCIM, sc.Filter == "buggy")
		s.Register(d.filter)
		target = internal
	}
	d.writer = axi.NewWriteManager("fz-writer", target)
	s.Register(d.writer)
	d.irq = sim.NewSender("fz-irq", sys.IRQ)
	s.Register(d.irq)

	d.drain = &drain{in: ch, fifo: d.fifo, writer: d.writer, irq: d.irq,
		expected: sc.Frames * 16}
	s.Register(d.drain)

	// Park the noise buses so reads/writes there always complete.
	s.Register(axi.NewRegSubordinate("fz-sda-park", sys.SDA))
	s.Register(axi.NewRegSubordinate("fz-bar1-park", sys.BAR1))

	return d
}

// Program enqueues the host-side workload.
func (d *pipeline) Program(cpu *shell.CPU) {
	sc := d.sc
	rng := sim.NewRand(sc.Seed ^ 0xda7a)
	d.Sent = make([]byte, sc.Frames*64)
	rng.Read(d.Sent)

	t1 := cpu.NewThread("fz-data")
	for f := 0; f < sc.Frames; f++ {
		t1.DMAWrite(uint64(f*64), d.Sent[f*64:(f+1)*64])
	}
	t1.WaitIRQ()

	t2 := cpu.NewThread("fz-ctrl")
	if sc.StartDelay > 0 {
		t2.Sleep(sc.StartDelay)
	}
	t2.WriteReg(shell.OCL, 0, 1)

	if len(sc.Noise) > 0 {
		t3 := cpu.NewThread("fz-noise")
		for _, op := range sc.Noise {
			bus := shell.SDA
			if op.Bus == 2 {
				bus = shell.BAR1
			}
			if op.Write {
				t3.WriteReg(bus, op.Addr, op.Val)
			} else {
				t3.ReadReg(bus, op.Addr, nil)
			}
		}
	}
}

// Done reports FPGA-side quiescence: the completion interrupt was sent and
// every write-back fully completed.
func (d *pipeline) Done() bool {
	return d.drain.irqSent && d.writer.Idle() && d.front.idle()
}

// LossErr reports fragments dropped at ingress by the buggy FrameFIFO.
// The golden oracle is only meaningful on a loss-free run, so the harness
// checks loss first and attributes it separately.
func (d *pipeline) LossErr() error {
	if n := len(d.fifo.Dropped); n > 0 {
		return fmt.Errorf("fuzz: FrameFIFO dropped %d fragments (first at arrival %d)",
			n, d.fifo.Dropped[0])
	}
	return nil
}

// EchoErr compares host DRAM against the sent payload (graph-free record
// runs only). A buggy FrameFIFO that dropped fragments shifts the write-back
// stream, so the comparison fails — the end-to-end data oracle.
func (d *pipeline) EchoErr() error {
	got := d.sys.HostDRAM.Read(OutBase, len(d.Sent))
	for i := range got {
		if got[i] != d.Sent[i] {
			return fmt.Errorf("fuzz: echo mismatch at byte %d (dropped fragments: %d)",
				i, len(d.fifo.Dropped))
		}
	}
	return nil
}

// GoldenErr compares host DRAM against the design package's cycle-free
// golden-model prediction over the sent fragment stream — the differential
// oracle for graph-carrying scenarios. Only valid when LossErr is nil: a
// drop at ingress shifts the token stream and the prediction with it.
func (d *pipeline) GoldenErr() error {
	frags := make([]uint32, len(d.Sent)/fragBytes)
	for i := range frags {
		frags[i] = binary.LittleEndian.Uint32(d.Sent[i*fragBytes:])
	}
	pred := frags
	if d.sc.Graph != nil {
		pred = d.sc.Graph.Golden(frags)
	}
	want := make([]byte, len(pred)*fragBytes)
	for i, v := range pred {
		binary.LittleEndian.PutUint32(want[i*fragBytes:], v)
	}
	got := d.sys.HostDRAM.Read(OutBase, len(want))
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf(
				"fuzz: golden divergence at byte %d (fragment %d): got %#02x, golden model predicts %#02x",
				i, i/fragBytes, got[i], want[i])
		}
	}
	return nil
}

// ctrl is the start flag shared between the register file and the pump.
type ctrl struct{ started bool }

// front is the pcis subordinate: it accepts DMA write bursts, splits each
// 512-bit beat into sixteen 32-bit fragments and pushes whole frames into
// the FrameFIFO. With the fixed FIFO a burst is only consumed when the whole
// frame fits — back-pressure; the buggy FIFO always "accepts" and drops.
type front struct {
	sim.EvalTracker
	iface *axi.Interface
	fifo  *bugs.FrameFIFO

	awBuf []axi.AWPayload
	wBuf  []axi.WPayload
	bAct  bool
}

// Name implements sim.Module.
func (f *front) Name() string { return "fz-front" }

func (f *front) idle() bool { return len(f.awBuf) == 0 && len(f.wBuf) == 0 && !f.bAct }

// Eval implements sim.Module: outputs are functions of registered state.
func (f *front) Eval() {
	f.iface.AW.Ready.Set(len(f.awBuf) < 4)
	f.iface.W.Ready.Set(len(f.wBuf) < 8)
	f.iface.B.Valid.Set(f.bAct)
	if f.bAct {
		var b [axi.FullBWidth]byte
		f.iface.B.Data.Set(axi.BPayload{Resp: axi.RespOKAY}.Encode(b[:]))
	}
	f.iface.AR.Ready.Set(false)
	f.iface.R.Valid.Set(false)
}

// Sensitivity implements sim.Sensitive.
func (f *front) Sensitivity() sim.Sensitivity {
	return sim.Sensitivity{Drives: []sim.Signal{
		f.iface.AW.Ready, f.iface.W.Ready, f.iface.B.Valid, f.iface.B.Data,
		f.iface.AR.Ready, f.iface.R.Valid,
	}}
}

func (f *front) busy() bool { return !f.idle() }

// Tick implements sim.Module.
func (f *front) Tick() {
	if f.busy() {
		f.Touch()
	}
	defer func() {
		if f.busy() {
			f.Touch()
		}
	}()
	if f.iface.AW.Fired() {
		f.awBuf = append(f.awBuf, axi.DecodeAW(f.iface.AW.Data.Get(), false))
	}
	if f.iface.W.Fired() {
		f.wBuf = append(f.wBuf, axi.DecodeW(f.iface.W.Data.Get(), false))
	}
	if !f.bAct && len(f.awBuf) > 0 && len(f.wBuf) >= int(f.awBuf[0].Len)+1 {
		need := int(f.awBuf[0].Len) + 1
		room := f.fifo.Cap() - f.fifo.Len()
		if f.fifo.Buggy || room >= 16*need {
			for b := 0; b < need; b++ {
				beat := f.wBuf[b]
				frame := make([]uint32, 16)
				for i := range frame {
					frame[i] = binary.LittleEndian.Uint32(beat.Data[i*4:])
				}
				f.fifo.PushFrame(frame)
			}
			f.awBuf = f.awBuf[1:]
			f.wBuf = f.wBuf[need:]
			f.bAct = true
		}
	}
	if f.bAct && f.iface.B.Fired() {
		f.bAct = false
	}
}

// pump pops fragments from the FrameFIFO into the chain once started. Its
// Tick is ungated (no TickSensitive) so it behaves identically under both
// kernels without depending on wake conditions.
type pump struct {
	sim.NullEval
	ctl  *ctrl
	fifo *bugs.FrameFIFO
	out  *sim.Sender
	rate int
}

// Name implements sim.Module.
func (p *pump) Name() string { return "fz-pump" }

// Tick implements sim.Module.
func (p *pump) Tick() {
	if !p.ctl.started {
		return
	}
	for i := 0; i < p.rate; i++ {
		v, ok := p.fifo.Pop()
		if !ok {
			return
		}
		var b [fragBytes]byte
		binary.LittleEndian.PutUint32(b[:], v)
		p.out.Push(b[:])
	}
}

// drain is the chain's tail: it collects fragments, reassembles 64-byte
// chunks and writes them back to host DRAM via the write manager. When every
// expected fragment is accounted for (arrived or dropped by the buggy FIFO)
// and all write-backs completed, it raises one interrupt. Completion counts
// drops exactly like the §5.2 echo server, so the interrupt is
// cycle-independent and fires even in lossy runs.
type drain struct {
	in       *sim.Channel
	fifo     *bugs.FrameFIFO
	writer   *axi.WriteManager
	irq      *sim.Sender
	expected int

	got     []byte
	flushed int
	pending int
	closed  bool
	irqSent bool
}

// Name implements sim.Module.
func (d *drain) Name() string { return "fz-drain" }

// Eval implements sim.Module: the drain is always ready.
func (d *drain) Eval() { d.in.Ready.Set(true) }

// Sensitivity implements sim.Sensitive.
func (d *drain) Sensitivity() sim.Sensitivity {
	return sim.Sensitivity{Drives: d.in.ReceiverSignals()}
}

// EvalStable implements sim.Stable: the drain drives a constant.
func (d *drain) EvalStable() bool { return true }

// Tick implements sim.Module.
func (d *drain) Tick() {
	if d.in.Fired() {
		d.got = append(d.got, d.in.Data.Snapshot()...)
	}
	// Every expected fragment either arrived or was dropped at ingress ⇒
	// nothing is still in flight in the chain.
	if !d.closed && len(d.got)/fragBytes+len(d.fifo.Dropped) >= d.expected {
		d.closed = true
	}
	for len(d.got)-d.flushed >= 64 {
		d.push(d.got[d.flushed : d.flushed+64])
		d.flushed += 64
	}
	if d.closed && d.flushed < len(d.got) {
		// Final partial chunk (possible only after drops).
		d.push(d.got[d.flushed:])
		d.flushed = len(d.got)
	}
	if d.closed && d.pending == 0 && d.flushed == len(d.got) && !d.irqSent {
		d.irqSent = true
		d.irq.Push([]byte{1, 0})
	}
}

func (d *drain) push(chunk []byte) {
	buf := append([]byte(nil), chunk...)
	d.pending++
	d.writer.Push(axi.WriteOp{
		Addr: OutBase + uint64(d.flushed),
		Data: buf,
		Done: func(uint8) { d.pending-- },
	})
}
