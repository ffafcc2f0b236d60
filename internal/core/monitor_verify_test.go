package core

// Exhaustive schedule exploration of the channel monitor, standing in for
// the paper's formal verification (SystemVerilog Assertions via JasperGold,
// §4.1). The paper proves that monitors "enforce critical properties (e.g.,
// intercepted transactions handshake correctly and are not reordered nor
// dropped)" — and notes that Debug Governor violates exactly these under
// encoder back-pressure.
//
// Here we enumerate every receiver-readiness schedule over a bounded
// horizon, crossed with several trace-store drain rates, sender gap
// patterns, and both monitor variants (cut-through and store-and-forward),
// and assert on every schedule:
//
//  1. no transaction is dropped, duplicated or reordered;
//  2. the VALID/READY protocol is never violated on either side;
//  3. the recorded trace contains exactly the delivered transactions, with
//     matching contents and legal start/end structure.

import (
	"bytes"
	"fmt"
	"testing"

	"vidi/internal/axi"
	"vidi/internal/sim"
	"vidi/internal/trace"
)

// maskReceiver drives READY from a bit schedule, repeating the mask.
type maskReceiver struct {
	ch       *sim.Channel
	mask     uint32
	bits     uint
	cycle    int
	Received [][]byte
}

func (r *maskReceiver) Name() string { return "mask-receiver" }
func (r *maskReceiver) Eval() {
	bit := uint(r.cycle) % r.bits
	r.ch.Ready.Set(r.mask&(1<<bit) != 0)
}
func (r *maskReceiver) Tick() {
	if r.ch.Fired() {
		r.Received = append(r.Received, r.ch.Data.Snapshot())
	}
	r.cycle++
}

func TestMonitorExhaustiveSchedules(t *testing.T) {
	const horizon = 10 // receiver schedule length (2^10 schedules)
	payloads := [][]byte{{1}, {2}, {3}}
	drains := []int{1, 2, 50}
	gaps := [][]int{nil, {0, 2, 0}, {3, 0, 1}}

	runs := 0
	for mask := uint32(1); mask < 1<<horizon; mask++ {
		for _, drain := range drains {
			for gi, gap := range gaps {
				for _, saf := range []bool{false, true} {
					runs++
					if err := runMonitorSchedule(payloads, mask, horizon, drain, gap, saf); err != nil {
						t.Fatalf("mask=%#x drain=%d gaps=%d saf=%v: %v", mask, drain, gi, saf, err)
					}
				}
			}
		}
	}
	if runs < 2000 {
		t.Fatalf("exploration too small: %d runs", runs)
	}
	t.Logf("explored %d schedules", runs)
}

func runMonitorSchedule(payloads [][]byte, mask uint32, bits int, drain int, gaps []int, saf bool) error {
	s := sim.New()
	env := s.NewChannel("env.in", 1)
	app := s.NewChannel("app.in", 1)
	b := NewBoundary()
	b.MustAdd(trace.ChannelInfo{Name: "in", Interface: "t", Width: 1, Dir: trace.Input}, env, app)

	meta := b.Meta(false)
	store := NewStore(drain, nil)
	// A buffer barely above the conservative margin so availability
	// genuinely fluctuates with the drain schedule.
	enc := NewEncoder(meta, store, enc0Margin(meta)+8)
	mon := newMonitor(0, b.Channels()[0], enc, saf)

	snd := sim.NewSender("snd", env)
	gi := 0
	if gaps != nil {
		snd.Gap = func() int {
			g := gaps[gi%len(gaps)]
			gi++
			return g
		}
	}
	rcv := &maskReceiver{ch: app, mask: mask, bits: uint(bits)}
	s.Register(snd, rcv, mon, enc, store)
	chk := axi.NewProtocolChecker("chk", env, app)
	chk.Install(s)

	for _, p := range payloads {
		snd.Push(p)
	}
	if _, err := s.Run(5000, func() bool { return len(rcv.Received) == len(payloads) && !env.InFlight() }); err != nil {
		return fmt.Errorf("run: %w", err)
	}
	// Property 1: delivery without loss, duplication or reorder.
	for i, p := range payloads {
		if !bytes.Equal(rcv.Received[i], p) {
			return fmt.Errorf("payload %d delivered as %x, want %x", i, rcv.Received[i], p)
		}
	}
	// Property 3: the trace matches exactly.
	tr := enc.Trace()
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("trace structure: %w", err)
	}
	txns := tr.Transactions(0)
	if len(txns) != len(payloads) {
		return fmt.Errorf("trace has %d transactions, want %d", len(txns), len(payloads))
	}
	for i, tx := range txns {
		if !bytes.Equal(tx.Content, payloads[i]) {
			return fmt.Errorf("trace transaction %d content %x, want %x", i, tx.Content, payloads[i])
		}
		if tx.EndPacket < tx.StartPacket {
			return fmt.Errorf("transaction %d ends before it starts", i)
		}
	}
	// Eager reservation sanity: nothing left reserved.
	if enc.reserved != 0 {
		return fmt.Errorf("dangling reservations: %d bytes", enc.reserved)
	}
	return nil
}

// enc0Margin computes the encoder's conservative per-cycle margin for meta.
func enc0Margin(meta *trace.Meta) int {
	e := NewEncoder(meta, nil, 1<<20)
	return e.margin[0] + e.startNeed[0] + e.endNeed[0][0]
}

// TestMonitorWithoutReservationWouldViolate demonstrates the failure the
// eager reservation prevents (the Debug Governor bug the paper cites): if
// the encoder accepted starts without reserving end space, a full buffer at
// transaction-end time would force the monitor to either violate the
// handshake or lose the end event. We verify the guarantee from the other
// side: with reservations, end events always land, even when the store is
// completely stalled at completion time.
func TestMonitorReservationSurvivesStalledStore(t *testing.T) {
	s := sim.New()
	env := s.NewChannel("env.in", 1)
	app := s.NewChannel("app.in", 1)
	b := NewBoundary()
	b.MustAdd(trace.ChannelInfo{Name: "in", Interface: "t", Width: 1, Dir: trace.Input}, env, app)
	meta := b.Meta(false)

	store := NewStore(0, nil) // never drains
	enc := NewEncoder(meta, store, enc0Margin(meta)+8)
	mon := newMonitor(0, b.Channels()[0], enc, false)
	snd := sim.NewSender("snd", env)
	// Receiver stays not-ready for a long time, then accepts: the end
	// event arrives while the store has made zero progress.
	rcv := &maskReceiver{ch: app, mask: 1 << 9, bits: 10}
	s.Register(snd, rcv, mon, enc, store)
	snd.Push([]byte{0xAB})
	if _, err := s.Run(200, func() bool { return len(rcv.Received) == 1 }); err != nil {
		t.Fatal(err)
	}
	tr := enc.Trace()
	if got := tr.EndCounts()[0]; got != 1 {
		t.Fatalf("end event lost under stalled store: %d", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
