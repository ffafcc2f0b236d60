package design

import (
	"encoding/binary"

	"vidi/internal/sim"
)

// The compiled node library. Every module is a Moore machine — Eval derives
// channel outputs from registered state only, so each Sensitivity declares
// Drives and no Reads — and every Tick guards its Data reads with the
// channel's Fired() (the handshake-lint discipline). All are TickSensitive:
// handshake-driven modules report TickStable true so the scheduler can gate
// them; countdown state (compute latency, clock phase) reports unstable and
// keeps the module awake, which is exactly the legacy kernel's view.

// tokBytes is the payload width of one token.
const tokBytes = 4

func encTok(x uint32) []byte {
	b := make([]byte, tokBytes)
	binary.LittleEndian.PutUint32(b, x)
	return b
}

func decTok(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

// forkMod duplicates each input token to every output. It holds the token
// until all branches accepted their copy (branch back-pressure stalls the
// others — the fan-out transaction completes atomically over time).
type forkMod struct {
	sim.EvalTracker
	name string
	in   *sim.Channel
	outs []*sim.Channel

	have bool
	tok  []byte
	sent []bool
}

func newFork(name string, in *sim.Channel, outs []*sim.Channel) *forkMod {
	return &forkMod{name: name, in: in, outs: outs, sent: make([]bool, len(outs))}
}

// Name implements sim.Module.
func (f *forkMod) Name() string { return f.name }

// Eval implements sim.Module.
//
//lint:sensaudit Drives ranges over the dynamic fan-out width; the dynamic checker audits it in every scheduler-side golden/fuzz run
func (f *forkMod) Eval() {
	f.in.Ready.Set(!f.have)
	for i, out := range f.outs {
		pend := f.have && !f.sent[i]
		out.Valid.Set(pend)
		if pend {
			out.Data.Set(f.tok)
		}
	}
}

// Sensitivity implements sim.Sensitive.
func (f *forkMod) Sensitivity() sim.Sensitivity {
	drives := []sim.Signal{f.in.Ready}
	for _, out := range f.outs {
		drives = append(drives, out.Valid, out.Data)
	}
	return sim.Sensitivity{Drives: drives}
}

// TickWatch implements sim.TickSensitive.
func (f *forkMod) TickWatch() []*sim.Channel {
	return append([]*sim.Channel{f.in}, f.outs...)
}

// TickStable implements sim.TickSensitive: fork state changes only on
// handshake events.
func (f *forkMod) TickStable() bool { return true }

// Tick implements sim.Module.
func (f *forkMod) Tick() {
	done := f.have
	for i, out := range f.outs {
		if out.Fired() {
			f.sent[i] = true
			f.Touch()
		}
		if !f.sent[i] {
			done = false
		}
	}
	if done {
		f.have = false
		for i := range f.sent {
			f.sent[i] = false
		}
		f.Touch()
	}
	if f.in.Fired() {
		f.tok = f.in.Data.Snapshot()
		f.have = true
		f.Touch()
	}
}

// joinMod zip-joins its inputs: it buffers one token per input and, once
// every slot is filled, offers the binary left fold of the slots in input
// order. reverse folds right-to-left instead — the planted join-ordering
// bug (observable through any non-commutative fold op).
type joinMod struct {
	sim.EvalTracker
	name    string
	ins     []*sim.Channel
	out     *sim.Channel
	fold    func(a, b uint32) uint32
	reverse bool

	got  []bool
	vals []uint32
}

func newJoin(name string, ins []*sim.Channel, out *sim.Channel, fold func(a, b uint32) uint32, reverse bool) *joinMod {
	return &joinMod{name: name, ins: ins, out: out, fold: fold, reverse: reverse,
		got: make([]bool, len(ins)), vals: make([]uint32, len(ins))}
}

// Name implements sim.Module.
func (j *joinMod) Name() string { return j.name }

func (j *joinMod) full() bool {
	for _, g := range j.got {
		if !g {
			return false
		}
	}
	return true
}

func (j *joinMod) folded() uint32 {
	if j.reverse {
		acc := j.vals[len(j.vals)-1]
		for i := len(j.vals) - 2; i >= 0; i-- {
			acc = j.fold(acc, j.vals[i])
		}
		return acc
	}
	acc := j.vals[0]
	for _, v := range j.vals[1:] {
		acc = j.fold(acc, v)
	}
	return acc
}

// Eval implements sim.Module.
//
//lint:sensaudit Drives ranges over the dynamic fan-in width; the dynamic checker audits it in every scheduler-side golden/fuzz run
func (j *joinMod) Eval() {
	for i, in := range j.ins {
		in.Ready.Set(!j.got[i])
	}
	full := j.full()
	j.out.Valid.Set(full)
	if full {
		j.out.Data.Set(encTok(j.folded()))
	}
}

// Sensitivity implements sim.Sensitive.
func (j *joinMod) Sensitivity() sim.Sensitivity {
	drives := []sim.Signal{j.out.Valid, j.out.Data}
	for _, in := range j.ins {
		drives = append(drives, in.Ready)
	}
	return sim.Sensitivity{Drives: drives}
}

// TickWatch implements sim.TickSensitive.
func (j *joinMod) TickWatch() []*sim.Channel {
	return append([]*sim.Channel{j.out}, j.ins...)
}

// TickStable implements sim.TickSensitive.
func (j *joinMod) TickStable() bool { return true }

// Tick implements sim.Module.
func (j *joinMod) Tick() {
	if j.out.Fired() {
		for i := range j.got {
			j.got[i] = false
		}
		j.Touch()
	}
	for i, in := range j.ins {
		if in.Fired() {
			j.vals[i] = decTok(in.Data.Snapshot())
			j.got[i] = true
			j.Touch()
		}
	}
}

// dealMod distributes tokens round-robin across its outputs.
type dealMod struct {
	sim.EvalTracker
	name string
	in   *sim.Channel
	outs []*sim.Channel

	have bool
	tok  []byte
	idx  int
}

func newDeal(name string, in *sim.Channel, outs []*sim.Channel) *dealMod {
	return &dealMod{name: name, in: in, outs: outs}
}

// Name implements sim.Module.
func (d *dealMod) Name() string { return d.name }

// Eval implements sim.Module.
//
//lint:sensaudit Drives ranges over the dynamic fan-out width; the dynamic checker audits it in every scheduler-side golden/fuzz run
func (d *dealMod) Eval() {
	d.in.Ready.Set(!d.have)
	for i, out := range d.outs {
		cur := d.have && i == d.idx
		out.Valid.Set(cur)
		if cur {
			out.Data.Set(d.tok)
		}
	}
}

// Sensitivity implements sim.Sensitive.
func (d *dealMod) Sensitivity() sim.Sensitivity {
	drives := []sim.Signal{d.in.Ready}
	for _, out := range d.outs {
		drives = append(drives, out.Valid, out.Data)
	}
	return sim.Sensitivity{Drives: drives}
}

// TickWatch implements sim.TickSensitive.
func (d *dealMod) TickWatch() []*sim.Channel {
	return append([]*sim.Channel{d.in}, d.outs...)
}

// TickStable implements sim.TickSensitive.
func (d *dealMod) TickStable() bool { return true }

// Tick implements sim.Module.
func (d *dealMod) Tick() {
	if d.outs[d.idx].Fired() {
		d.have = false
		d.idx = (d.idx + 1) % len(d.outs)
		d.Touch()
	}
	if d.in.Fired() {
		d.tok = d.in.Data.Snapshot()
		d.have = true
		d.Touch()
	}
}

// mergeMod reassembles a dealt stream: it accepts from its inputs strictly
// round-robin, which restores the original order because every branch is
// rate-1 and in-order.
type mergeMod struct {
	sim.EvalTracker
	name string
	ins  []*sim.Channel
	out  *sim.Channel

	have bool
	tok  []byte
	idx  int
}

func newMerge(name string, ins []*sim.Channel, out *sim.Channel) *mergeMod {
	return &mergeMod{name: name, ins: ins, out: out}
}

// Name implements sim.Module.
func (m *mergeMod) Name() string { return m.name }

// Eval implements sim.Module.
//
//lint:sensaudit Drives ranges over the dynamic fan-in width; the dynamic checker audits it in every scheduler-side golden/fuzz run
func (m *mergeMod) Eval() {
	for i, in := range m.ins {
		in.Ready.Set(!m.have && i == m.idx)
	}
	m.out.Valid.Set(m.have)
	if m.have {
		m.out.Data.Set(m.tok)
	}
}

// Sensitivity implements sim.Sensitive.
func (m *mergeMod) Sensitivity() sim.Sensitivity {
	drives := []sim.Signal{m.out.Valid, m.out.Data}
	for _, in := range m.ins {
		drives = append(drives, in.Ready)
	}
	return sim.Sensitivity{Drives: drives}
}

// TickWatch implements sim.TickSensitive.
func (m *mergeMod) TickWatch() []*sim.Channel {
	return append([]*sim.Channel{m.out}, m.ins...)
}

// TickStable implements sim.TickSensitive.
func (m *mergeMod) TickStable() bool { return true }

// Tick implements sim.Module.
func (m *mergeMod) Tick() {
	if m.out.Fired() {
		m.have = false
		m.Touch()
	}
	if m.ins[m.idx].Fired() {
		m.tok = m.ins[m.idx].Data.Snapshot()
		m.have = true
		m.idx = (m.idx + 1) % len(m.ins)
		m.Touch()
	}
}

// computeStage applies a unary op with value-dependent latency: a token is
// accepted, transformed, held for lat(x) cycles, then offered. The latency
// countdown is the one piece of non-handshake state in the library, so the
// stage reports unstable while counting.
type computeStage struct {
	sim.EvalTracker
	name string
	in   *sim.Channel
	out  *sim.Channel
	fn   func(uint32) uint32
	lat  func(uint32) int

	have bool
	rem  int
	val  uint32
}

func newCompute(name string, in, out *sim.Channel, fn func(uint32) uint32, lat func(uint32) int) *computeStage {
	return &computeStage{name: name, in: in, out: out, fn: fn, lat: lat}
}

// Name implements sim.Module.
func (c *computeStage) Name() string { return c.name }

// Eval implements sim.Module.
func (c *computeStage) Eval() {
	c.in.Ready.Set(!c.have)
	ready := c.have && c.rem == 0
	c.out.Valid.Set(ready)
	if ready {
		c.out.Data.Set(encTok(c.val))
	}
}

// Sensitivity implements sim.Sensitive.
func (c *computeStage) Sensitivity() sim.Sensitivity {
	return sim.Sensitivity{Drives: []sim.Signal{c.in.Ready, c.out.Valid, c.out.Data}}
}

// TickWatch implements sim.TickSensitive.
func (c *computeStage) TickWatch() []*sim.Channel { return []*sim.Channel{c.in, c.out} }

// TickStable implements sim.TickSensitive: counting latency needs a Tick
// every cycle; otherwise only handshakes matter.
func (c *computeStage) TickStable() bool { return !(c.have && c.rem > 0) }

// Tick implements sim.Module.
func (c *computeStage) Tick() {
	if c.out.Fired() {
		c.have = false
		c.Touch()
	}
	if c.have && c.rem > 0 {
		c.rem--
		if c.rem == 0 {
			c.Touch()
		}
	}
	if c.in.Fired() {
		x := decTok(c.in.Data.Snapshot())
		c.val = c.fn(x)
		c.rem = c.lat(x)
		c.have = true
		c.Touch()
	}
}

// clockDiv is an identity stage living in a clock domain ratio times slower
// than the system clock: its input and output handshakes can complete only
// on the divided edges (one cycle in every ratio), modelling a
// multi-clock-ratio boundary. The phase counter feeds Eval, so the stage
// ticks — and touches — on every system cycle, exactly like a real divider.
type clockDiv struct {
	sim.EvalTracker
	name  string
	in    *sim.Channel
	out   *sim.Channel
	ratio int

	have bool
	tok  []byte
	cnt  int
}

func newClockDiv(name string, in, out *sim.Channel, ratio int) *clockDiv {
	return &clockDiv{name: name, in: in, out: out, ratio: ratio}
}

// Name implements sim.Module.
func (c *clockDiv) Name() string { return c.name }

// edge reports whether the current cycle is a divided-clock edge.
func (c *clockDiv) edge() bool { return c.cnt == c.ratio-1 }

// Eval implements sim.Module.
func (c *clockDiv) Eval() {
	edge := c.edge()
	c.in.Ready.Set(!c.have && edge)
	pend := c.have && edge
	c.out.Valid.Set(pend)
	if pend {
		c.out.Data.Set(c.tok)
	}
}

// Sensitivity implements sim.Sensitive.
func (c *clockDiv) Sensitivity() sim.Sensitivity {
	return sim.Sensitivity{Drives: []sim.Signal{c.in.Ready, c.out.Valid, c.out.Data}}
}

// TickWatch implements sim.TickSensitive.
func (c *clockDiv) TickWatch() []*sim.Channel { return []*sim.Channel{c.in, c.out} }

// TickStable implements sim.TickSensitive: the phase counter never sleeps.
func (c *clockDiv) TickStable() bool { return false }

// Tick implements sim.Module.
func (c *clockDiv) Tick() {
	if c.out.Fired() {
		c.have = false
		c.Touch()
	}
	if c.in.Fired() {
		c.tok = c.in.Data.Snapshot()
		c.have = true
		c.Touch()
	}
	wasEdge := c.edge()
	c.cnt = (c.cnt + 1) % c.ratio
	if c.edge() != wasEdge {
		c.Touch()
	}
}
