// Package baseline implements the two record/replay designs Vidi is
// compared against: cycle-accurate recording (ILA / SignalTap / Panopticon
// style — every input signal, every clock cycle) and order-less recording
// (Debug Governor style — per-channel content streams with no cross-channel
// ordering). They anchor Table 1's trace-reduction column, the §6 bandwidth
// analysis, and the §1/§7 argument that order-less replay cannot reproduce
// ordering-dependent applications.
package baseline

import (
	"bytes"
	"fmt"

	"vidi/internal/sim"
)

// CycleTrace is a cycle-accurate capture: for every clock cycle, every
// input channel's VALID bit and full DATA payload, plus every output
// channel's READY bit. Replaying it drives the identical signal values in
// the identical cycles.
type CycleTrace struct {
	Inputs  []ChannelDesc
	Outputs []ChannelDesc
	Cycles  []CycleRecord
}

// ChannelDesc names a captured channel.
type ChannelDesc struct {
	Name  string
	Width int
}

// CycleRecord is the signal image of one clock cycle.
type CycleRecord struct {
	Valid []bool
	Data  [][]byte // one payload per input channel (nil when not valid)
	Ready []bool   // one per output channel
}

// BytesPerCycle is the storage cost of one cycle: all input payload bytes
// plus one bit per recorded control signal, rounded up.
func (t *CycleTrace) BytesPerCycle() int {
	n := 0
	for _, c := range t.Inputs {
		n += c.Width
	}
	bits := len(t.Inputs) + len(t.Outputs)
	return n + (bits+7)/8
}

// SizeBytes is the total trace size a cycle-accurate tool would store.
func (t *CycleTrace) SizeBytes() uint64 {
	return uint64(len(t.Cycles)) * uint64(t.BytesPerCycle())
}

// CycleRecorder captures a cycle-accurate trace of the given channels. It
// also models the bounded on-chip buffer of hardware tools: when the trace
// is produced faster than DrainPerCycle bytes can reach storage and the
// buffer overflows, the excess is counted as lost — the Panopticon failure
// mode discussed in §6.
type CycleRecorder struct {
	inputs  []*sim.Channel
	outputs []*sim.Channel
	rec     *CycleTrace

	// Capture disables signal storage when false (size accounting only),
	// for long runs where only the trace volume matters.
	Capture bool

	// BufBytes and DrainPerCycle model the on-chip staging buffer; zero
	// values mean unbounded/instant.
	BufBytes      int
	DrainPerCycle int

	buffered  int
	LostBytes uint64
	Total     uint64
}

// NewCycleRecorder creates a recorder over explicit input/output channels.
func NewCycleRecorder(inputs, outputs []*sim.Channel) *CycleRecorder {
	rec := &CycleTrace{}
	for _, ch := range inputs {
		rec.Inputs = append(rec.Inputs, ChannelDesc{Name: ch.Name(), Width: ch.Width()})
	}
	for _, ch := range outputs {
		rec.Outputs = append(rec.Outputs, ChannelDesc{Name: ch.Name(), Width: ch.Width()})
	}
	return &CycleRecorder{inputs: inputs, outputs: outputs, rec: rec, Capture: true}
}

// Name implements sim.Module.
func (r *CycleRecorder) Name() string { return "cycle-recorder" }

// Eval implements sim.Module.
func (r *CycleRecorder) Eval() {}

// Tick implements sim.Module: capture the cycle's signal image.
func (r *CycleRecorder) Tick() {
	size := r.rec.BytesPerCycle()
	r.Total += uint64(size)
	if r.BufBytes > 0 {
		r.buffered += size
		if r.DrainPerCycle > 0 {
			d := r.DrainPerCycle
			if d > r.buffered {
				d = r.buffered
			}
			r.buffered -= d
		}
		if r.buffered > r.BufBytes {
			r.LostBytes += uint64(r.buffered - r.BufBytes)
			r.buffered = r.BufBytes
		}
	}
	if !r.Capture {
		return
	}
	cr := CycleRecord{
		Valid: make([]bool, len(r.inputs)),
		Data:  make([][]byte, len(r.inputs)),
		Ready: make([]bool, len(r.outputs)),
	}
	for i, ch := range r.inputs {
		if ch.Valid.Get() {
			cr.Valid[i] = true
			cr.Data[i] = ch.Data.Snapshot()
		}
	}
	for i, ch := range r.outputs {
		cr.Ready[i] = ch.Ready.Get()
	}
	r.rec.Cycles = append(r.rec.Cycles, cr)
}

// Trace returns the captured trace.
func (r *CycleRecorder) Trace() *CycleTrace { return r.rec }

// CycleReplayer drives the recorded signal values back onto the channels,
// one cycle at a time — cycle-exact replay.
type CycleReplayer struct {
	tr      *CycleTrace
	inputs  []*sim.Channel
	outputs []*sim.Channel
	idx     int
}

// NewCycleReplayer creates a replayer driving the given channels from tr.
func NewCycleReplayer(tr *CycleTrace, inputs, outputs []*sim.Channel) (*CycleReplayer, error) {
	if len(inputs) != len(tr.Inputs) || len(outputs) != len(tr.Outputs) {
		return nil, fmt.Errorf("baseline: channel shape mismatch (%d/%d vs %d/%d)",
			len(inputs), len(outputs), len(tr.Inputs), len(tr.Outputs))
	}
	return &CycleReplayer{tr: tr, inputs: inputs, outputs: outputs}, nil
}

// Name implements sim.Module.
func (r *CycleReplayer) Name() string { return "cycle-replayer" }

// Done reports whether every recorded cycle has been driven.
func (r *CycleReplayer) Done() bool { return r.idx >= len(r.tr.Cycles) }

// Eval implements sim.Module: drive this cycle's recorded signal values.
func (r *CycleReplayer) Eval() {
	if r.Done() {
		for _, ch := range r.inputs {
			ch.Valid.Set(false)
		}
		for _, ch := range r.outputs {
			ch.Ready.Set(false)
		}
		return
	}
	cr := r.tr.Cycles[r.idx]
	for i, ch := range r.inputs {
		ch.Valid.Set(cr.Valid[i])
		if cr.Valid[i] {
			ch.Data.Set(cr.Data[i])
		}
	}
	for i, ch := range r.outputs {
		ch.Ready.Set(cr.Ready[i])
	}
}

// Tick implements sim.Module.
func (r *CycleReplayer) Tick() {
	if !r.Done() {
		r.idx++
	}
}

// Equal compares two cycle traces for identical signal histories.
func (t *CycleTrace) Equal(o *CycleTrace) bool {
	if len(t.Cycles) != len(o.Cycles) {
		return false
	}
	for i := range t.Cycles {
		a, b := t.Cycles[i], o.Cycles[i]
		for j := range a.Valid {
			if a.Valid[j] != b.Valid[j] || !bytes.Equal(a.Data[j], b.Data[j]) {
				return false
			}
		}
		for j := range a.Ready {
			if a.Ready[j] != b.Ready[j] {
				return false
			}
		}
	}
	return true
}
