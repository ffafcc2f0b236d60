package bugs

import (
	"vidi/internal/axi"
	"vidi/internal/shell"
	"vidi/internal/sim"
)

// AtopFilter is the ported axi_atop_filter from the PULP platform's AXI
// library (§5.3). It interposes on a write path (AW/W/B). The buggy revision
// assumes the end of the address transaction always happens before the end
// of the data transactions, so it withholds the W stream until its AW has
// completed downstream. The AXI protocol does not require that ordering: a
// downstream party may legally complete W first and only then AW — the
// interleaving Vidi's trace mutation synthesizes — and then the buggy
// filter deadlocks.
type AtopFilter struct {
	sim.EvalTracker
	// Buggy selects the deadlocking revision.
	Buggy bool

	up   *axi.Interface // application side (filter is the subordinate)
	down *axi.Interface // boundary side (filter is the manager)

	awQ []axi.AWPayload
	wQ  []axi.WPayload

	awActive bool
	awCur    axi.AWPayload
	wActive  bool
	wCur     axi.WPayload

	awDownDone int // AW transactions completed downstream
	awConsumed int // AW completions already matched to W bursts
}

// NewAtopFilter interposes between up (from the application) and down
// (toward the boundary).
func NewAtopFilter(up, down *axi.Interface, buggy bool) *AtopFilter {
	return &AtopFilter{Buggy: buggy, up: up, down: down}
}

// Name implements sim.Module.
func (f *AtopFilter) Name() string { return "axi-atop-filter" }

// Eval implements sim.Module.
func (f *AtopFilter) Eval() {
	f.up.AW.Ready.Set(len(f.awQ) < 4)
	f.up.W.Ready.Set(len(f.wQ) < 8)
	// B responses pass through combinationally.
	f.up.B.Valid.Set(f.down.B.Valid.Get())
	f.up.B.Data.Set(f.down.B.Data.Get())
	f.down.B.Ready.Set(f.up.B.Ready.Get())

	f.down.AW.Valid.Set(f.awActive)
	if f.awActive {
		var b [axi.FullAWWidth]byte
		f.down.AW.Data.Set(f.awCur.Encode(b[:], false))
	}
	f.down.W.Valid.Set(f.wActive)
	if f.wActive {
		var b [axi.FullWWidth]byte
		f.down.W.Data.Set(f.wCur.Encode(b[:], false))
	}
}

// Sensitivity implements sim.Sensitive: the B path is a combinational
// passthrough; everything else is driven from registered state.
func (f *AtopFilter) Sensitivity() sim.Sensitivity {
	return sim.Sensitivity{
		Reads: []sim.Signal{f.down.B.Valid, f.down.B.Data, f.up.B.Ready},
		Drives: []sim.Signal{
			f.up.AW.Ready, f.up.W.Ready, f.up.B.Valid, f.up.B.Data, f.down.B.Ready,
			f.down.AW.Valid, f.down.AW.Data, f.down.W.Valid, f.down.W.Data,
		},
	}
}

// busy reports whether registered state could still change the outputs.
func (f *AtopFilter) busy() bool {
	return len(f.awQ) > 0 || len(f.wQ) > 0 || f.awActive || f.wActive
}

// Tick implements sim.Module.
func (f *AtopFilter) Tick() {
	if f.busy() {
		f.Touch()
	}
	defer func() {
		if f.busy() {
			f.Touch()
		}
	}()
	if f.up.AW.Fired() {
		f.awQ = append(f.awQ, axi.DecodeAW(f.up.AW.Data.Get(), false))
	}
	if f.up.W.Fired() {
		f.wQ = append(f.wQ, axi.DecodeW(f.up.W.Data.Get(), false))
	}
	if f.awActive && f.down.AW.Fired() {
		f.awActive = false
		f.awDownDone++
	}
	if !f.awActive && len(f.awQ) > 0 {
		f.awCur = f.awQ[0]
		f.awQ = f.awQ[1:]
		f.awActive = true
	}
	if f.wActive && f.down.W.Fired() {
		f.wActive = false
	}
	if !f.wActive && len(f.wQ) > 0 {
		if f.Buggy && f.awDownDone <= f.awConsumed {
			// BUG: the filter refuses to offer write data until the
			// corresponding write address completed downstream. If the
			// downstream party waits for W before completing AW — legal
			// under AXI — this deadlocks.
			return
		}
		f.wCur = f.wQ[0]
		f.wQ = f.wQ[1:]
		f.wActive = true
		if f.wCur.Last {
			f.awConsumed++
		}
	}
}

// PingPongApp is the §5.3 echo server: the CPU "pings" data to card DRAM
// over pcis; the FPGA "pongs" it back to host DRAM over pcim, through the
// atop filter, which is configured to intercept (but not modify) the
// write-back requests.
type PingPongApp struct {
	// BuggyFilter selects the deadlocking filter revision.
	BuggyFilter bool
	// Pings is the number of 256-byte ping buffers.
	Pings int

	sys    *shell.System
	filter *AtopFilter
	pong   *axi.WriteManager
	pcisIn *axi.MemSubordinate

	pongsIssued int
	pongsDone   int
	Sent        []byte
}

// HostPongBase is where pongs land in host DRAM.
const HostPongBase = 0x10_0000

// Build attaches the ping-pong echo server to the shell.
func (a *PingPongApp) Build(sys *shell.System) {
	a.sys = sys
	if a.Pings == 0 {
		a.Pings = 6
	}
	// Ingress: pcis writes land in card DRAM.
	a.pcisIn = axi.NewMemSubordinate("pcis-window", sys.PCIS, sys.CardDRAM)
	sys.Sim.Register(a.pcisIn)
	// Egress: the app's write manager drives an internal interface that
	// the atop filter forwards to the boundary's pcim.
	internal := axi.NewFull(sys.Sim, "pong-int")
	a.pong = axi.NewWriteManager("pong-writer", internal)
	a.filter = NewAtopFilter(internal, sys.PCIM, a.BuggyFilter)
	sys.Sim.Register(a.pong, a.filter)
	// Control: a register write per ping triggers the pong.
	regs := axi.NewRegSubordinate("pong-regs", sys.OCL)
	regs.OnWrite = func(addr uint64, val uint32) {
		if addr == 0 {
			idx := int(val)
			buf := make([]byte, 256)
			// A buffer that runs past the end of card DRAM is copied
			// short; the rest of the pong stays zero.
			src := uint64(idx) * 256
			copy(buf, sys.CardDRAM.Read(src, int(min(256, sys.CardDRAM.Size()-src))))
			a.pong.Push(axi.WriteOp{
				Addr: HostPongBase + uint64(idx*256),
				Data: buf,
				Done: func(uint8) { a.pongsDone++ },
			})
			a.pongsIssued++
		}
	}
	sys.Sim.Register(regs)
	for i, iface := range []*axi.Interface{sys.SDA, sys.BAR1} {
		park := axi.NewRegSubordinate([]string{"sda-park", "bar1-park"}[i], iface)
		sys.Sim.Register(park)
	}
}

// Program enqueues the host side: ping then trigger pong, for each buffer.
func (a *PingPongApp) Program(cpu *shell.CPU) {
	rng := sim.NewRand(0x9009)
	a.Sent = make([]byte, a.Pings*256)
	rng.Read(a.Sent)
	t := cpu.NewThread("pingpong")
	for i := 0; i < a.Pings; i++ {
		t.DMAWrite(uint64(i*256), a.Sent[i*256:(i+1)*256])
		t.WriteReg(shell.OCL, 0, uint32(i))
	}
}

// Done reports whether every pong completed.
func (a *PingPongApp) Done() bool {
	return a.pongsDone == a.Pings && a.pong.Idle()
}
