package shell

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"

	"vidi/internal/axi"
	"vidi/internal/sim"
	"vidi/internal/telemetry"
)

// Bus names an MMIO bus of the F1 shell.
type Bus int

// The three AXI-Lite MMIO buses.
const (
	OCL Bus = iota
	SDA
	BAR1
)

// String implements fmt.Stringer.
func (b Bus) String() string {
	switch b {
	case OCL:
		return "ocl"
	case SDA:
		return "sda"
	default:
		return "bar1"
	}
}

// CPU is the host agent: a small multi-threaded, scriptable processor model
// that drives the environment side of the shell. Each thread executes its
// operation queue sequentially; operations across threads interleave, with
// seeded random delays modelling OS scheduling and PCIe timing noise — the
// non-determinism that Vidi records.
type CPU struct {
	sim.NullEval
	sys  *System
	seed int64

	liteW [3]*axi.WriteManager
	liteR [3]*axi.ReadManager
	dmaW  *axi.WriteManager
	dmaR  *axi.ReadManager

	threads []*Thread

	// StallFn, when set and returning true, freezes issue for the cycle: no
	// thread starts its next operation. Fault injection uses it to model
	// host-side scheduling stalls (the OS preempting the agent process) —
	// in-flight AXI traffic keeps draining, but no new work is issued.
	StallFn func() bool

	// Telemetry (attached by System.bindTelemetry; nil without a sink).
	tel        *telemetry.Sink
	jitterHist *telemetry.QuantileHistogram

	irqConsumed int
	tickWake    func()
}

func newCPU(sys *System) *CPU {
	c := &CPU{sys: sys, seed: sys.Cfg.Seed}
	envs := []*axi.Interface{sys.EnvOCL, sys.EnvSDA, sys.EnvBAR1}
	for i, env := range envs {
		c.liteW[i] = axi.NewWriteManager(fmt.Sprintf("cpu.%s.w", Bus(i)), env)
		c.liteR[i] = axi.NewReadManager(fmt.Sprintf("cpu.%s.r", Bus(i)), env)
		sys.Sim.Register(c.liteW[i], c.liteR[i])
	}
	c.dmaW = axi.NewWriteManager("cpu.pcis.w", sys.EnvPCIS)
	c.dmaR = axi.NewReadManager("cpu.pcis.r", sys.EnvPCIS)
	c.dmaW.Link = sys.PCIe
	c.dmaR.Link = sys.PCIe
	if sys.Cfg.JitterMax > 0 {
		// Each gap policy draws from its own derived stream: sharing one
		// source would couple the AW and W gap sequences to each other (and,
		// worse, to every thread's inter-op jitter), so that adding a thread
		// or an op would perturb unrelated timing and destroy seed-local
		// reproducibility under fuzz shrinking.
		c.dmaW.AWGap = sim.GapPolicy(deriveRand(c.seed, "cpu.pcis.awgap"), 0, sys.Cfg.JitterMax/2+1)
		c.dmaW.WGap = sim.GapPolicy(deriveRand(c.seed, "cpu.pcis.wgap"), 0, 2)
	}
	sys.Sim.Register(c.dmaW, c.dmaR)
	return c
}

// deriveRand returns a deterministic random stream unique to one named
// randomness consumer. Folding the label into the seed keeps consumers'
// streams independent: a consumer drawing more or fewer values never shifts
// another's sequence.
func deriveRand(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	io.WriteString(h, label)
	return sim.NewRand(seed ^ int64(h.Sum64()))
}

// Thread is one sequential stream of CPU operations.
type Thread struct {
	cpu  *CPU
	name string
	rng  *rand.Rand
	ops  []op
	busy bool
	wait int
	// irqWait parks the thread on WaitIRQ: it stays busy while the CPU's
	// Tick polls the interrupt counter on its behalf.
	irqWait bool

	// track, with tracing armed, carries one span per operation from issue
	// to completion; opStart is the issue cycle of the in-flight op.
	track   *telemetry.Track
	opStart uint64
}

type op func(t *Thread) // issues the operation; completion clears t.busy

// NewThread creates a named CPU thread. Each thread owns a random stream
// derived from the system seed and the thread's identity, so its inter-op
// jitter is a function of the seed and the thread's own schedule alone —
// reordering, adding or removing other threads leaves it untouched.
func (c *CPU) NewThread(name string) *Thread {
	label := fmt.Sprintf("cpu.thread.%d.%s", len(c.threads), name)
	t := &Thread{cpu: c, name: name, rng: deriveRand(c.seed, label)}
	if c.tel.Tracing() {
		t.track = c.tel.Track("shell.cpu", name)
	}
	c.threads = append(c.threads, t)
	return t
}

// Name implements sim.Module.
func (c *CPU) Name() string { return "cpu" }

// Tick implements sim.Module: every idle thread issues its next operation,
// after a seeded random delay.
func (c *CPU) Tick() {
	if c.StallFn != nil && c.StallFn() {
		return
	}
	for _, t := range c.threads {
		if t.irqWait {
			// Parked on WaitIRQ: honour the issue-time jitter delay, then
			// poll the interrupt counter until one can be consumed.
			if t.wait > 0 {
				t.wait--
			} else if t.consumeIRQ() {
				t.irqWait = false
			}
			continue
		}
		if t.busy || len(t.ops) == 0 {
			continue
		}
		if t.wait > 0 {
			t.wait--
			continue
		}
		next := t.ops[0]
		t.ops = t.ops[1:]
		t.busy = true
		if t.track != nil {
			t.opStart = c.sys.Sim.Cycle()
		}
		next(t)
	}
}

// BindTickWake implements sim.TickWakeable; completion callbacks and new
// work wake the CPU for the cycle's clock edge.
func (c *CPU) BindTickWake(wake func()) { c.tickWake = wake }

// TickWatch implements sim.TickSensitive: an interrupt handshake can unpark
// a WaitIRQ thread, and the sink that counts it ticks before the CPU.
func (c *CPU) TickWatch() []*sim.Channel { return []*sim.Channel{c.sys.EnvIRQ} }

// TickStable implements sim.TickSensitive: the CPU sleeps while every thread
// is finished, blocked on an in-flight AXI operation (a manager Done
// callback wakes it), or parked on WaitIRQ with no interrupt pending.
func (c *CPU) TickStable() bool {
	if c.StallFn != nil {
		return false
	}
	for _, t := range c.threads {
		if t.irqWait {
			if t.wait > 0 || c.sys.IRQReceived > c.irqConsumed {
				return false
			}
			continue
		}
		if !t.busy && len(t.ops) > 0 {
			return false
		}
	}
	return true
}

// Done reports whether every thread has drained its queue and completed its
// in-flight operation.
func (c *CPU) Done() bool {
	for _, t := range c.threads {
		if t.busy || len(t.ops) > 0 {
			return false
		}
	}
	return true
}

// jitter returns a seeded random inter-op delay from the thread's own
// stream.
func (t *Thread) jitter() int {
	if t.cpu.sys.Cfg.JitterMax <= 0 {
		return 0
	}
	n := t.rng.Intn(t.cpu.sys.Cfg.JitterMax + 1)
	t.cpu.jitterHist.Observe(float64(n))
	return n
}

func (t *Thread) enqueue(f op) *Thread {
	t.ops = append(t.ops, func(tt *Thread) {
		tt.wait = tt.jitter()
		f(tt)
	})
	if t.cpu.tickWake != nil {
		t.cpu.tickWake()
	}
	return t
}

// done marks the in-flight operation complete. Completions arrive from
// manager Ticks while the CPU may be asleep, so they wake it.
func (t *Thread) done() {
	t.busy = false
	if t.track != nil {
		t.track.Span("op", t.opStart, t.cpu.sys.Sim.Cycle()+1)
	}
	if t.cpu.tickWake != nil {
		t.cpu.tickWake()
	}
}

// consumeIRQ claims one pending interrupt, completing a WaitIRQ.
func (t *Thread) consumeIRQ() bool {
	if t.cpu.sys.IRQReceived > t.cpu.irqConsumed {
		t.cpu.irqConsumed++
		t.done()
		return true
	}
	return false
}

// WriteReg enqueues a 32-bit MMIO register write.
func (t *Thread) WriteReg(bus Bus, addr uint64, val uint32) *Thread {
	return t.enqueue(func(tt *Thread) {
		data := []byte{byte(val), byte(val >> 8), byte(val >> 16), byte(val >> 24)}
		tt.cpu.liteW[bus].Push(axi.WriteOp{Addr: addr, Data: data, Done: func(uint8) { tt.done() }})
	})
}

// ReadReg enqueues a 32-bit MMIO register read; into receives the value.
func (t *Thread) ReadReg(bus Bus, addr uint64, into func(uint32)) *Thread {
	return t.enqueue(func(tt *Thread) {
		tt.cpu.liteR[bus].Push(axi.ReadOp{Addr: addr, Done: func(d []byte, _ uint8) {
			if into != nil {
				into(le32(d))
			}
			tt.done()
		}})
	})
}

// DMAWrite enqueues a PCIe DMA write of data to FPGA address addr (over
// pcis). Large payloads are split into bursts of at most 64 beats.
func (t *Thread) DMAWrite(addr uint64, data []byte) *Thread {
	return t.enqueue(func(tt *Thread) {
		const maxBurst = 64 * axi.FullDataBytes
		remaining := 0
		for off := 0; off < len(data); off += maxBurst {
			remaining++
			_ = off
		}
		if remaining == 0 {
			tt.done()
			return
		}
		for off := 0; off < len(data); off += maxBurst {
			hi := off + maxBurst
			if hi > len(data) {
				hi = len(data)
			}
			tt.cpu.dmaW.Push(axi.WriteOp{Addr: addr + uint64(off), Data: data[off:hi], Done: func(uint8) {
				remaining--
				if remaining == 0 {
					tt.done()
				}
			}})
		}
	})
}

// DMAWriteMasked enqueues a single-burst PCIe DMA write with an explicit
// byte-enable mask (1 = write), modelling the masked beats an unaligned
// transfer produces.
func (t *Thread) DMAWriteMasked(addr uint64, data, strb []byte) *Thread {
	return t.enqueue(func(tt *Thread) {
		tt.cpu.dmaW.Push(axi.WriteOp{Addr: addr, Data: data, Strb: strb, Done: func(uint8) { tt.done() }})
	})
}

// DMARead enqueues a PCIe DMA read of n bytes from FPGA address addr; into
// receives the data. n is rounded up to whole beats.
func (t *Thread) DMARead(addr uint64, n int, into func([]byte)) *Thread {
	return t.enqueue(func(tt *Thread) {
		beats := (n + axi.FullDataBytes - 1) / axi.FullDataBytes
		const maxBurst = 64
		var collected []byte
		remaining := (beats + maxBurst - 1) / maxBurst
		for off := 0; off < beats; off += maxBurst {
			cnt := beats - off
			if cnt > maxBurst {
				cnt = maxBurst
			}
			tt.cpu.dmaR.Push(axi.ReadOp{
				Addr: addr + uint64(off*axi.FullDataBytes), Beats: cnt,
				Done: func(d []byte, _ uint8) {
					collected = append(collected, d...)
					remaining--
					if remaining == 0 {
						if into != nil {
							if len(collected) > n {
								collected = collected[:n]
							}
							into(collected)
						}
						tt.done()
					}
				},
			})
		}
	})
}

// Poll enqueues a polling loop: wait interval cycles, read the register,
// and repeat until the predicate holds. This is the cycle-dependent
// construct that causes the DRAM DMA app's replay divergence in the paper
// (§3.6): replay compresses the inter-poll gaps, so a replayed poll can
// land on the other side of the event it was watching.
func (t *Thread) Poll(bus Bus, addr uint64, interval int, until func(uint32) bool) *Thread {
	return t.enqueue(func(tt *Thread) {
		var attempt func()
		attempt = func() {
			tt.cpu.liteR[bus].Push(axi.ReadOp{Addr: addr, Done: func(d []byte, _ uint8) {
				if until(le32(d)) {
					tt.done()
					return
				}
				// Re-poll after the interval: prepend a delay + retry.
				tt.wait = interval
				tt.ops = append([]op{func(*Thread) { attempt() }}, tt.ops...)
				tt.done()
			}})
		}
		// The first poll also waits out one interval.
		tt.wait = interval
		tt.ops = append([]op{func(*Thread) { attempt() }}, tt.ops...)
		tt.done()
	})
}

// WaitIRQ enqueues a wait for the next user interrupt. An unsatisfied wait
// parks the thread (see Tick) instead of re-enqueueing a polling op, which
// would allocate every cycle; the poll cycles are identical either way, and
// no randomness is drawn while parked.
func (t *Thread) WaitIRQ() *Thread {
	return t.enqueue(func(tt *Thread) {
		if !tt.consumeIRQ() {
			tt.irqWait = true
		}
	})
}

// Sleep enqueues a fixed delay in cycles.
func (t *Thread) Sleep(cycles int) *Thread {
	return t.enqueue(func(tt *Thread) {
		tt.wait = cycles
		tt.ops = append([]op{func(x *Thread) { x.done() }}, tt.ops...)
		tt.done()
	})
}

// Call enqueues an arbitrary host-side action (e.g. inspecting host DRAM or
// enqueueing further operations).
func (t *Thread) Call(f func()) *Thread {
	return t.enqueue(func(tt *Thread) {
		if f != nil {
			f()
		}
		tt.done()
	})
}

func le32(d []byte) uint32 {
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24
}
