// Package bugs contains the two case-study designs of the paper's
// evaluation: the buggy Frame FIFO echo server used in the debugging case
// study (§5.2, from the "Debugging in the Brave New World of Reconfigurable
// Hardware" bug survey) together with a LossCheck-style instrumentation
// module, and the buggy axi_atop_filter echo server used in the testing
// case study (§5.3, from the PULP platform's AXI library).
package bugs

import (
	"encoding/binary"

	"vidi/internal/axi"
	"vidi/internal/shell"
	"vidi/internal/sim"
)

// FrameFIFO groups 32-bit data fragments into frames and enqueues/dequeues
// fragments one at a time. The upstream design SHOULD block incoming data
// while full; the ported bug instead silently drops the tail fragments of a
// frame whenever the frame size is unaligned with the remaining capacity.
type FrameFIFO struct {
	capacity int
	buf      []uint32

	// Buggy enables the drop bug; the fixed variant reports how many
	// fragments were accepted so the producer can stall.
	Buggy bool

	// Dropped records the indices (in arrival order) of dropped fragments;
	// LossCheck reads it to point at the root cause.
	Dropped []int
	seen    int
}

// NewFrameFIFO creates a FIFO holding capacity fragments.
func NewFrameFIFO(capacity int, buggy bool) *FrameFIFO {
	return &FrameFIFO{capacity: capacity, Buggy: buggy}
}

// Len reports the number of queued fragments.
func (f *FrameFIFO) Len() int { return len(f.buf) }

// Cap reports the fragment capacity.
func (f *FrameFIFO) Cap() int { return f.capacity }

// PushFrame enqueues a frame of fragments. It returns the number of
// fragments actually accepted. The buggy variant claims to have accepted
// the whole frame (returning len(frame)) while silently dropping the
// fragments that did not fit — the data-loss bug.
func (f *FrameFIFO) PushFrame(frame []uint32) int {
	room := f.capacity - len(f.buf)
	n := len(frame)
	if n <= room {
		f.buf = append(f.buf, frame...)
		f.seen += n
		return n
	}
	if f.Buggy {
		// Frame size unaligned with the remaining capacity: the tail is
		// dropped but the producer is told everything was stored.
		f.buf = append(f.buf, frame[:room]...)
		for i := room; i < n; i++ {
			f.Dropped = append(f.Dropped, f.seen+i)
		}
		f.seen += n
		return n
	}
	// Fixed behaviour: accept only what fits; the caller must retry.
	f.buf = append(f.buf, frame[:room]...)
	f.seen += room
	return room
}

// Pop dequeues one fragment.
func (f *FrameFIFO) Pop() (uint32, bool) {
	if len(f.buf) == 0 {
		return 0, false
	}
	v := f.buf[0]
	f.buf = f.buf[1:]
	return v, true
}

// LossCheck is the third-party instrumentation tool from the paper's bug
// survey: attached to a FrameFIFO, it reports which fragments were lost.
type LossCheck struct {
	FIFO *FrameFIFO
}

// Report returns the dropped fragment indices.
func (lc *LossCheck) Report() []int { return lc.FIFO.Dropped }

// EchoApp is the §5.2 echo server: the FPGA component receives PCIe
// DMA-Write frames, splits each 512-bit beat into 16 32-bit fragments, runs
// them through the Frame FIFO, and stores the FIFO output to card DRAM; the
// CPU validates by reading the stored data back. Thread T1 drives the data
// and validation; thread T2 flips the control register that starts the
// drain — when T2 is delayed, the FIFO fills and the buggy drop fires.
type EchoApp struct {
	// DelayStart postpones T2's control-register write, triggering the
	// delayed-start bug.
	DelayStart int
	// UnalignedGarbage, when non-zero, masks that many leading bytes of the
	// first beat via the DMA byte-enable mask (the unaligned-access bug
	// surface: the echo server ignores the mask).
	UnalignedGarbage int
	// Frames is the number of 64-byte frames T1 writes.
	Frames int
	// FixedFIFO selects the corrected FIFO.
	FixedFIFO bool

	sys   *shell.System
	front *echoFront
	fifo  *FrameFIFO

	Sent     []byte
	Received []byte
}

// Build attaches the echo server to the shell.
func (a *EchoApp) Build(sys *shell.System) {
	a.sys = sys
	if a.Frames == 0 {
		a.Frames = 12
	}
	a.fifo = NewFrameFIFO(64, !a.FixedFIFO) // 4 frames of 16 fragments
	regs := newEchoRegs(sys)
	irq := sim.NewSender("echo-irq", sys.IRQ)
	sys.Sim.Register(irq)
	a.front = &echoFront{iface: sys.PCIS, fifo: a.fifo, card: sys.CardDRAM, regs: regs, irq: irq}
	sys.Sim.Register(a.front)
	// Park the unused interfaces.
	sda := axi.NewRegSubordinate("sda-park", sys.SDA)
	bar1 := axi.NewRegSubordinate("bar1-park", sys.BAR1)
	sys.Sim.Register(sda, bar1)
}

type echoRegs struct {
	sub      *axi.RegSubordinate
	started  bool
	progress uint32
	expected uint32
}

func newEchoRegs(sys *shell.System) *echoRegs {
	r := &echoRegs{}
	r.sub = axi.NewRegSubordinate("echo-regs", sys.OCL)
	r.sub.OnWrite = func(addr uint64, val uint32) {
		switch {
		case addr == 0 && val == 1:
			r.started = true
		case addr == 8:
			r.expected = val
		}
	}
	r.sub.OnRead = func(addr uint64) uint32 {
		switch addr {
		case 0:
			if r.started {
				return 1
			}
			return 0
		case 4:
			return r.progress
		}
		return 0
	}
	sys.Sim.Register(r.sub)
	return r
}

func (r *echoRegs) setProgress(v uint32) { r.progress = v }

// Program enqueues T1 (data + validation) and T2 (control) onto the CPU.
func (a *EchoApp) Program(cpu *shell.CPU) {
	rng := sim.NewRand(0xec0)
	a.Sent = make([]byte, a.Frames*64)
	rng.Read(a.Sent)

	t1 := cpu.NewThread("T1-data")
	t1.WriteReg(shell.OCL, 8, uint32(a.Frames*16))
	for f := 0; f < a.Frames; f++ {
		frame := a.Sent[f*64 : (f+1)*64]
		if f == 0 && a.UnalignedGarbage > 0 {
			strb := make([]byte, 64)
			for i := range strb {
				if i >= a.UnalignedGarbage {
					strb[i] = 1
				}
			}
			garbled := append([]byte(nil), frame...)
			for i := 0; i < a.UnalignedGarbage; i++ {
				garbled[i] = 0xEE // stale bus bytes under a cleared mask
			}
			t1.DMAWriteMasked(uint64(f*64), garbled, strb)
			continue
		}
		t1.DMAWrite(uint64(f*64), frame)
	}
	// Wait for the drain-complete interrupt, then read back.
	t1.WaitIRQ()
	t1.DMARead(1<<20, a.Frames*64, func(d []byte) { a.Received = d })

	t2 := cpu.NewThread("T2-ctrl")
	if a.DelayStart > 0 {
		t2.Sleep(a.DelayStart)
	}
	t2.WriteReg(shell.OCL, 0, 1)
}

// Done reports FPGA-side quiescence.
func (a *EchoApp) Done() bool { return a.front.idle() }

// Loss returns the LossCheck report for the FIFO.
func (a *EchoApp) Loss() []int { return (&LossCheck{FIFO: a.fifo}).Report() }

// echoFront is the FPGA component: pcis subordinate that feeds frames to
// the FIFO and serves read-back from card DRAM. Drained fragments land at
// card DRAM offset 1 MiB. The fragment counter is exposed at register 4.
type echoFront struct {
	sim.EvalTracker
	iface *axi.Interface
	fifo  *FrameFIFO
	card  *axi.Memory
	regs  *echoRegs

	awBuf []axi.AWPayload
	wBuf  []axi.WPayload
	bAct  bool

	rq   []axi.ARPayload
	rAct bool
	rCur []byte
	rBts [][]byte

	irq     *sim.Sender
	irqSent bool
	drained uint32
}

// Name implements sim.Module.
func (e *echoFront) Name() string { return "echo-front" }

func (e *echoFront) idle() bool { return len(e.awBuf) == 0 && len(e.wBuf) == 0 && !e.bAct }

// Sensitivity implements sim.Sensitive: the front's outputs are pure
// functions of registered state; it reads no signals during Eval.
func (e *echoFront) Sensitivity() sim.Sensitivity {
	return sim.Sensitivity{Drives: []sim.Signal{
		e.iface.AW.Ready, e.iface.W.Ready, e.iface.B.Valid, e.iface.B.Data,
		e.iface.AR.Ready, e.iface.R.Valid, e.iface.R.Data,
	}}
}

// busy reports whether registered state could still change the outputs; an
// idle front drives constants.
func (e *echoFront) busy() bool {
	return len(e.awBuf) > 0 || len(e.wBuf) > 0 || e.bAct ||
		len(e.rq) > 0 || e.rAct || len(e.rBts) > 0 ||
		(e.regs.started && e.fifo.Len() > 0)
}

// Eval implements sim.Module.
func (e *echoFront) Eval() {
	e.iface.AW.Ready.Set(len(e.awBuf) < 4)
	e.iface.W.Ready.Set(len(e.wBuf) < 4)
	e.iface.B.Valid.Set(e.bAct)
	if e.bAct {
		e.iface.B.Data.Set(axi.BPayload{Resp: axi.RespOKAY}.Encode())
	}
	e.iface.AR.Ready.Set(len(e.rq) < 2)
	e.iface.R.Valid.Set(e.rAct)
	if e.rAct {
		e.iface.R.Data.Set(e.rCur)
	}
}

// Tick implements sim.Module.
func (e *echoFront) Tick() {
	if e.busy() {
		e.Touch()
	}
	defer func() {
		if e.busy() {
			e.Touch()
		}
	}()
	if e.iface.AW.Fired() {
		e.awBuf = append(e.awBuf, axi.DecodeAW(e.iface.AW.Data.Get(), false))
	}
	if e.iface.W.Fired() {
		beat := axi.DecodeW(e.iface.W.Data.Get(), false)
		e.wBuf = append(e.wBuf, beat)
	}
	// Complete bursts: split each beat into 16 fragments and push. BUG
	// SURFACE 1: the byte-enable mask (beat.Strb) is ignored entirely, so
	// masked-out garbage bytes flow into the FIFO. The corrected FIFO
	// variant exerts back-pressure instead: a burst is only consumed when
	// the whole frame fits, which stalls W acceptance upstream.
	if !e.bAct && len(e.awBuf) > 0 && len(e.wBuf) >= int(e.awBuf[0].Len)+1 {
		need := int(e.awBuf[0].Len) + 1
		room := e.fifo.capacity - e.fifo.Len()
		if e.fifo.Buggy || room >= 16*need {
			for b := 0; b < need; b++ {
				beat := e.wBuf[b]
				frame := make([]uint32, 16)
				for i := range frame {
					frame[i] = binary.LittleEndian.Uint32(beat.Data[i*4:])
				}
				// BUG SURFACE 2: the return value (fragments accepted) is
				// ignored; the buggy FIFO drops tails when nearly full.
				e.fifo.PushFrame(frame)
			}
			e.awBuf = e.awBuf[1:]
			e.wBuf = e.wBuf[need:]
			e.bAct = true
		}
	}
	if e.bAct && e.iface.B.Fired() {
		e.bAct = false
	}
	// Drain to card DRAM once started, sixteen fragments per cycle (the
	// drain must outpace the 512-bit ingress or even the fixed design
	// would stall forever).
	if e.regs.started {
		for i := 0; i < 16; i++ {
			v, ok := e.fifo.Pop()
			if !ok {
				break
			}
			var frag [4]byte
			binary.LittleEndian.PutUint32(frag[:], v)
			e.card.Write(1<<20+uint64(e.drained)*4, frag[:])
			e.drained++
		}
		// Progress counts fragments that left the ingress stage; drops are
		// invisible to it, exactly as in the original design. Completion is
		// signalled with a cycle-independent interrupt once every expected
		// fragment has been accounted for.
		e.regs.setProgress(e.drained + uint32(len(e.fifo.Dropped)))
		if !e.irqSent && e.regs.expected > 0 && e.regs.progress >= e.regs.expected {
			e.irqSent = true
			e.irq.Push([]byte{1, 0})
		}
	}

	// Read-back path.
	if e.iface.AR.Fired() {
		e.rq = append(e.rq, axi.DecodeAR(e.iface.AR.Data.Get(), false))
	}
	if e.rAct && e.iface.R.Fired() {
		e.rAct = false
	}
	if !e.rAct && len(e.rBts) > 0 {
		e.rCur = e.rBts[0]
		e.rBts = e.rBts[1:]
		e.rAct = true
	}
	if !e.rAct && len(e.rBts) == 0 && len(e.rq) > 0 {
		ar := e.rq[0]
		e.rq = e.rq[1:]
		beats := int(ar.Len) + 1
		for i := 0; i < beats; i++ {
			// A beat that runs past the end of card DRAM reads short and
			// is zero-filled.
			addr := ar.Addr + uint64(i*64)
			data := make([]byte, axi.FullDataBytes)
			copy(data, e.card.Read(addr, int(min(axi.FullDataBytes, e.card.Size()-addr))))
			e.rBts = append(e.rBts, axi.RPayload{Data: data, Resp: axi.RespOKAY, Last: i == beats-1}.Encode(false))
		}
		e.rCur = e.rBts[0]
		e.rBts = e.rBts[1:]
		e.rAct = true
	}
}
