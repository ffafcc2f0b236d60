package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"vidi/internal/sim"
	"vidi/internal/trace"
)

// accumulator is an order-dependent test application: it consumes values
// from an "add" and a "xor" input channel, applies them to an accumulator in
// arrival order (channel index breaks same-cycle ties), and emits the
// accumulator value on the output channel after every operation. Its output
// depends on the interleaving of the two input channels, so order-less
// replay cannot reproduce it but transaction determinism can.
type accumulator struct {
	add, xor *sim.Channel // inputs (app side)
	out      *sim.Channel // output (app side)

	acc     uint32
	results [][]byte // queued output payloads
	active  bool
	cur     []byte

	Applied []string // log of operations, for order assertions
}

func (a *accumulator) Name() string { return "accumulator" }

func (a *accumulator) Eval() {
	a.add.Ready.Set(len(a.results) < 8)
	a.xor.Ready.Set(len(a.results) < 8)
	a.out.Valid.Set(a.active)
	if a.active {
		a.out.Data.Set(a.cur)
	}
}

func (a *accumulator) Tick() {
	if a.add.Fired() {
		v := binary.LittleEndian.Uint32(a.add.Data.Get())
		a.acc += v
		a.Applied = append(a.Applied, "add")
		a.emit()
	}
	if a.xor.Fired() {
		v := binary.LittleEndian.Uint32(a.xor.Data.Get())
		a.acc ^= v
		a.Applied = append(a.Applied, "xor")
		a.emit()
	}
	if a.active && a.out.Fired() {
		a.active = false
	}
	if !a.active && len(a.results) > 0 {
		a.cur = a.results[0]
		a.results = a.results[1:]
		a.active = true
	}
}

func (a *accumulator) emit() {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, a.acc)
	a.results = append(a.results, b)
}

// testSystem wires the accumulator behind a boundary with environment-side
// channels.
type testSystem struct {
	sim      *sim.Simulator
	boundary *Boundary
	app      *accumulator
	envAdd   *sim.Channel
	envXor   *sim.Channel
	envOut   *sim.Channel
}

func newTestSystem() *testSystem {
	s := sim.New()
	envAdd := s.NewChannel("env.add", 4)
	envXor := s.NewChannel("env.xor", 4)
	envOut := s.NewChannel("env.out", 4)
	appAdd := s.NewChannel("app.add", 4)
	appXor := s.NewChannel("app.xor", 4)
	appOut := s.NewChannel("app.out", 4)

	b := NewBoundary()
	b.MustAdd(trace.ChannelInfo{Name: "add", Interface: "in", Width: 4, Dir: trace.Input}, envAdd, appAdd)
	b.MustAdd(trace.ChannelInfo{Name: "xor", Interface: "in", Width: 4, Dir: trace.Input}, envXor, appXor)
	b.MustAdd(trace.ChannelInfo{Name: "out", Interface: "out", Width: 4, Dir: trace.Output}, envOut, appOut)

	app := &accumulator{add: appAdd, xor: appXor, out: appOut}
	s.Register(app)
	return &testSystem{sim: s, boundary: b, app: app, envAdd: envAdd, envXor: envXor, envOut: envOut}
}

func u32(v uint32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, v)
	return b
}

// runRecorded drives the system with jittered senders/receiver and returns
// the outputs observed plus the recorded trace (nil if mode is ModeOff).
func runRecorded(t *testing.T, seed int64, opts Options, nOps int) ([][]byte, *trace.Trace, []string, uint64) {
	t.Helper()
	ts := newTestSystem()
	sh, err := NewShim(ts.sim, ts.boundary, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(seed)
	addS := sim.NewSender("addS", ts.envAdd)
	xorS := sim.NewSender("xorS", ts.envXor)
	outR := sim.NewReceiver("outR", ts.envOut)
	addS.Gap = sim.GapPolicy(rng, 0, 6)
	xorS.Gap = sim.GapPolicy(rng, 0, 6)
	outR.Policy = sim.JitterPolicy(rng, 50)
	ts.sim.Register(addS, xorS, outR)

	for i := 0; i < nOps; i++ {
		addS.Push(u32(uint32(i*3 + 1)))
		xorS.Push(u32(uint32(i*7 + 2)))
	}
	done := func() bool { return addS.Idle() && xorS.Idle() && len(outR.Received) == 2*nOps }
	cycles, err := ts.sim.Run(100000, done)
	if err != nil {
		t.Fatal(err)
	}
	return outR.Received, sh.Trace(), ts.app.Applied, cycles
}

// runReplay replays tr and returns the outputs the replayers accepted plus
// the validation trace when record is set.
func runReplay(t *testing.T, tr *trace.Trace, record bool) ([][]byte, *trace.Trace, []string) {
	t.Helper()
	ts := newTestSystem()
	sh, err := NewShim(ts.sim, ts.boundary, Options{
		Mode: ModeReplay, Record: record, ValidateOutputs: true, ReplayTrace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	var outputs [][]byte
	probe := &outProbe{ch: ts.envOut, out: &outputs}
	ts.sim.Register(probe)
	if _, err := ts.sim.Run(200000, sh.ReplayDone); err != nil {
		t.Fatal(err)
	}
	return outputs, sh.Trace(), ts.app.Applied
}

type outProbe struct {
	ch  *sim.Channel
	out *[][]byte
}

func (p *outProbe) Name() string { return "outprobe" }
func (p *outProbe) Eval()        {}
func (p *outProbe) Tick() {
	if p.ch.Fired() {
		*p.out = append(*p.out, p.ch.Data.Snapshot())
	}
}

func TestRecordingIsTransparent(t *testing.T) {
	// R1 (off) and R2 (record) must produce identical outputs: recording
	// must not alter program behaviour (§5.4 "Recording").
	off, _, opsOff, _ := runRecorded(t, 42, Options{Mode: ModeOff}, 20)
	rec, tr, opsRec, _ := runRecorded(t, 42, Options{Mode: ModeRecord, ValidateOutputs: true}, 20)
	if len(off) != len(rec) {
		t.Fatalf("output counts differ: %d vs %d", len(off), len(rec))
	}
	for i := range off {
		if !bytes.Equal(off[i], rec[i]) {
			t.Fatalf("output %d differs: %x vs %x", i, off[i], rec[i])
		}
	}
	if len(opsOff) != len(opsRec) {
		t.Fatal("operation logs differ in length")
	}
	if tr == nil || tr.TotalTransactions() == 0 {
		t.Fatal("no trace recorded")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
}

func TestRecordedTraceCountsMatch(t *testing.T) {
	_, tr, _, _ := runRecorded(t, 7, Options{Mode: ModeRecord, ValidateOutputs: true}, 15)
	counts := tr.EndCounts()
	// 15 adds, 15 xors, 30 outputs.
	if counts[0] != 15 || counts[1] != 15 || counts[2] != 30 {
		t.Fatalf("end counts %v, want [15 15 30]", counts)
	}
	// Input transactions carry content.
	txns := tr.Transactions(0)
	if len(txns) != 15 {
		t.Fatalf("reconstructed %d add transactions", len(txns))
	}
	for i, tx := range txns {
		if got := binary.LittleEndian.Uint32(tx.Content); got != uint32(i*3+1) {
			t.Fatalf("add txn %d content %d, want %d", i, got, i*3+1)
		}
	}
}

func TestReplayReproducesOutputs(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99, 1234} {
		rec, tr, opsRec, _ := runRecorded(t, seed, Options{Mode: ModeRecord, ValidateOutputs: true}, 25)
		rep, _, opsRep := runReplay(t, tr, false)
		if len(rep) != len(rec) {
			t.Fatalf("seed %d: replay produced %d outputs, recorded %d", seed, len(rep), len(rec))
		}
		for i := range rec {
			if !bytes.Equal(rec[i], rep[i]) {
				t.Fatalf("seed %d: output %d differs: recorded %x, replayed %x", seed, i, rec[i], rep[i])
			}
		}
		// The application applied operations in the same order.
		for i := range opsRec {
			if opsRec[i] != opsRep[i] {
				t.Fatalf("seed %d: op %d order differs: %s vs %s", seed, i, opsRec[i], opsRep[i])
			}
		}
	}
}

func TestReplayWithValidationTraceIsClean(t *testing.T) {
	_, ref, _, _ := runRecorded(t, 11, Options{Mode: ModeRecord, ValidateOutputs: true}, 30)
	_, val, _ := runReplay(t, ref, true)
	if val == nil {
		t.Fatal("no validation trace recorded")
	}
	rep, err := Compare(ref, val)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("unexpected divergences:\n%s", rep)
	}
	if rep.RefTransactions == 0 {
		t.Fatal("reference transaction count missing")
	}
}

func TestReplayIsDeterministic(t *testing.T) {
	_, ref, _, _ := runRecorded(t, 5, Options{Mode: ModeRecord, ValidateOutputs: true}, 20)
	out1, val1, _ := runReplay(t, ref, true)
	out2, val2, _ := runReplay(t, ref, true)
	if len(out1) != len(out2) {
		t.Fatal("replays produced different output counts")
	}
	for i := range out1 {
		if !bytes.Equal(out1[i], out2[i]) {
			t.Fatalf("replays differ at output %d", i)
		}
	}
	if val1.Len() != val2.Len() {
		t.Fatal("validation traces have different lengths across replays")
	}
}

func TestBackPressureWithTinyBufferLosesNothing(t *testing.T) {
	// A 4 KiB staging buffer and a 1 B/cycle store force constant
	// back-pressure; the transaction abstraction lets Vidi stall the
	// environment instead of dropping events (§3.3, §6).
	outs, tr, _, slowCycles := runRecorded(t, 13, Options{
		Mode: ModeRecord, ValidateOutputs: true, BufBytes: 4 << 10, StoreBytesPerCycle: 1,
	}, 12)
	if len(outs) != 24 {
		t.Fatalf("lost outputs under back-pressure: %d", len(outs))
	}
	counts := tr.EndCounts()
	if counts[0] != 12 || counts[1] != 12 || counts[2] != 24 {
		t.Fatalf("trace lost events under back-pressure: %v", counts)
	}
	_, _, _, fastCycles := runRecorded(t, 13, Options{Mode: ModeRecord, ValidateOutputs: true}, 12)
	if slowCycles < fastCycles {
		t.Fatalf("back-pressure should slow recording: slow=%d fast=%d", slowCycles, fastCycles)
	}
	// And the throttled trace still replays cleanly.
	rep, _, _ := runReplay(t, tr, false)
	if len(rep) != 24 {
		t.Fatalf("replay of back-pressured trace produced %d outputs", len(rep))
	}
}

func TestStoreAndForwardAblation(t *testing.T) {
	rec, tr, _, safCycles := runRecorded(t, 21, Options{
		Mode: ModeRecord, ValidateOutputs: true, StoreAndForward: true,
	}, 15)
	_, _, _, ctCycles := runRecorded(t, 21, Options{Mode: ModeRecord, ValidateOutputs: true}, 15)
	if safCycles < ctCycles {
		t.Fatalf("store-and-forward should not be faster: saf=%d ct=%d", safCycles, ctCycles)
	}
	// Still correct: replay reproduces outputs.
	rep, _, _ := runReplay(t, tr, false)
	if len(rep) != len(rec) {
		t.Fatalf("saf replay outputs %d vs %d", len(rep), len(rec))
	}
	for i := range rec {
		if !bytes.Equal(rec[i], rep[i]) {
			t.Fatalf("saf output %d differs", i)
		}
	}
}

func TestCompareDetectsContentDivergence(t *testing.T) {
	_, ref, _, _ := runRecorded(t, 31, Options{Mode: ModeRecord, ValidateOutputs: true}, 10)
	_, val, _ := runReplay(t, ref, true)
	// Corrupt one replayed output content.
	oc := val.Meta.ChannelByName("out")
	mutated := false
	for pi := 0; pi < val.Len(); pi++ {
		if c := val.Packet(pi).Channel(oc).Content; c != nil {
			c[0] ^= 0xff
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("found no output content to corrupt")
	}
	rep, err := Compare(ref, val)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range rep.Divergences {
		if d.Kind == ContentDivergence && d.Name == "out" {
			found = true
		}
	}
	if !found {
		t.Fatalf("content divergence not detected:\n%s", rep)
	}
}

func TestCompareDetectsCountDivergence(t *testing.T) {
	_, ref, _, _ := runRecorded(t, 33, Options{Mode: ModeRecord, ValidateOutputs: true}, 10)
	_, val, _ := runReplay(t, ref, true)
	// Drop the last output end event.
	oc := val.Meta.ChannelByName("out")
	last := val.FindEnd(oc, val.EndCounts()[oc]-1)
	dropped := trace.NewTrace(val.Meta)
	for pi := 0; pi < val.Len(); pi++ {
		dropEnd := -1
		if pi == last {
			dropEnd = oc
		}
		copyPacket(dropped, val.Packet(pi), -1, dropEnd)
	}
	val = dropped
	rep, err := Compare(ref, val)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range rep.Divergences {
		if d.Kind == CountDivergence {
			found = true
		}
	}
	if !found {
		t.Fatal("count divergence not detected")
	}
}

func TestCompareDetectsOrderDivergence(t *testing.T) {
	_, ref, _, _ := runRecorded(t, 35, Options{Mode: ModeRecord, ValidateOutputs: true}, 10)
	val, err := trace.FromBytes(ref.Bytes()) // deep copy
	if err != nil {
		t.Fatal(err)
	}
	// Swap two distant output ends in the validation trace.
	if err := MoveEndBefore(val, "out", 9, "out", 2); err != nil {
		t.Fatal(err)
	}
	rep, err := Compare(ref, val)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range rep.Divergences {
		if d.Kind == OrderDivergence {
			found = true
		}
	}
	if !found {
		t.Fatalf("order divergence not detected:\n%s", rep)
	}
}

func TestCompareRequiresValidation(t *testing.T) {
	_, ref, _, _ := runRecorded(t, 1, Options{Mode: ModeRecord}, 5)
	if _, err := Compare(ref, ref); err == nil {
		t.Fatal("expected error without output validation")
	}
}

func TestMoveEndBeforeReordersTrace(t *testing.T) {
	_, tr, _, _ := runRecorded(t, 17, Options{Mode: ModeRecord, ValidateOutputs: true}, 10)
	xi := tr.Meta.ChannelByName("xor")
	ai := tr.Meta.ChannelByName("add")
	movedContent := tr.Transactions(xi)[5].Content
	xorBefore := 0
	addPkt := tr.FindEnd(ai, 2)
	for _, tx := range tr.Transactions(xi) {
		if tx.EndPacket < addPkt {
			xorBefore++
		}
	}
	// Move xor transaction #5 (its end AND, since its start follows the
	// target, its start) strictly before add's 2nd end.
	if err := MoveEndBefore(tr, "xor", 5, "add", 2); err != nil {
		t.Fatal(err)
	}
	addPkt = tr.FindEnd(ai, 2)
	nowBefore := 0
	foundMoved := false
	for _, tx := range tr.Transactions(xi) {
		if tx.EndPacket < addPkt {
			nowBefore++
			if bytes.Equal(tx.Content, movedContent) {
				foundMoved = true
			}
		}
	}
	if nowBefore != xorBefore+1 || !foundMoved {
		t.Fatalf("mutation failed: %d→%d xor ends before add#2, moved content found=%v",
			xorBefore, nowBefore, foundMoved)
	}
	if got := len(tr.Transactions(xi)); got != 10 {
		t.Fatalf("mutation changed transaction count: %d", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("mutated trace invalid: %v", err)
	}
}

func TestMoveEndBeforeUnknownChannel(t *testing.T) {
	_, tr, _, _ := runRecorded(t, 17, Options{Mode: ModeRecord, ValidateOutputs: true}, 3)
	if err := MoveEndBefore(tr, "nope", 0, "add", 0); err == nil {
		t.Fatal("expected error for unknown channel")
	}
}

func TestShimRejectsMismatchedReplayTrace(t *testing.T) {
	_, tr, _, _ := runRecorded(t, 17, Options{Mode: ModeRecord, ValidateOutputs: true}, 3)
	ts := newTestSystem()
	// Tamper with the trace meta.
	tr.Meta.Channels[0].Width = 8
	if _, err := NewShim(ts.sim, ts.boundary, Options{Mode: ModeReplay, ReplayTrace: tr}); err == nil {
		t.Fatal("expected channel mismatch error")
	}
}

func TestShimRequiresReplayTrace(t *testing.T) {
	ts := newTestSystem()
	if _, err := NewShim(ts.sim, ts.boundary, Options{Mode: ModeReplay}); err == nil {
		t.Fatal("expected error for missing trace")
	}
}

func TestEncoderReservationAccounting(t *testing.T) {
	meta := trace.NewMeta([]trace.ChannelInfo{
		{Name: "a", Width: 4, Dir: trace.Input},
		{Name: "b", Width: 4, Dir: trace.Output},
	}, true)
	store := NewStore(1024, nil)
	enc := NewEncoder(meta, store, 1024)
	if !enc.CanAccept(0) {
		t.Fatal("fresh encoder should accept")
	}
	enc.ReserveEnd(0)
	r1 := enc.reserved
	enc.ReserveEnd(0) // idempotent
	if enc.reserved != r1 {
		t.Fatal("double reservation must not double-count")
	}
	enc.LogEnd(0, nil)
	if enc.reserved != 0 {
		t.Fatal("reservation not released on LogEnd")
	}
}

// TestEncoderContentOrder checks the compaction of a cycle packet's
// contents: the input start contents in channel order, then the output end
// contents in channel order, whatever order the monitors logged them in. A
// lossy packet keeps its start contents and sheds its end contents.
func TestEncoderContentOrder(t *testing.T) {
	meta := trace.NewMeta([]trace.ChannelInfo{
		{Name: "a", Width: 1, Dir: trace.Input},
		{Name: "x", Width: 1, Dir: trace.Output},
		{Name: "b", Width: 1, Dir: trace.Input},
		{Name: "y", Width: 1, Dir: trace.Output},
		{Name: "c", Width: 1, Dir: trace.Input},
	}, true)
	enc := NewEncoder(meta, NewStore(1024, nil), 1024)
	enc.LogEnd(3, []byte{'y'})
	enc.LogStart(2, []byte{'b'})
	enc.LogEnd(0, nil)
	enc.LogEnd(1, []byte{'x'})
	enc.LogStart(0, []byte{'a'})
	enc.Tick()
	enc.lossy = true
	enc.LogStart(4, []byte{'c'})
	enc.LogEnd(3, []byte{'Y'})
	enc.Tick()

	tr := enc.Trace()
	want := []string{"abxy", "c"}
	if tr.Len() != len(want) {
		t.Fatalf("got %d packets, want %d", tr.Len(), len(want))
	}
	for pi, w := range want {
		if got := string(tr.Packet(pi).Body); got != w {
			t.Fatalf("packet %d contents %q, want %q", pi, got, w)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Transactions(3); len(got) != 2 || !bytes.Equal(got[0].Content, []byte{'y'}) || got[1].Content != nil {
		t.Fatalf("y transactions %+v", got)
	}
}

// TestCompareAllocsIndependentOfLength guards Compare's one-pass index: a
// trace twice as long must not cost more allocations.
func TestCompareAllocsIndependentOfLength(t *testing.T) {
	_, tr, _, _ := runRecorded(t, 37, Options{Mode: ModeRecord, ValidateOutputs: true}, 20)
	twice := repeated(tr, 2)
	allocs := func(tr *trace.Trace) float64 {
		return testing.AllocsPerRun(10, func() {
			if rep, err := Compare(tr, tr); err != nil || !rep.Clean() {
				t.Fatalf("Compare(tr, tr) = %v, %v", rep, err)
			}
		})
	}
	base, grown := allocs(tr), allocs(twice)
	if grown > base+2 {
		t.Fatalf("Compare allocates %.0f times over %d packets and %.0f over %d", base, tr.Len(), grown, twice.Len())
	}
}

// repeated returns a trace of tr's packets, k times over.
func repeated(tr *trace.Trace, k int) *trace.Trace {
	d := trace.NewTrace(tr.Meta)
	for i := 0; i < k*tr.Len(); i++ {
		copyPacket(d, tr.Packet(i%tr.Len()), -1, -1)
	}
	return d
}

// TestCodecAllocsIndependentOfLength guards the storage round trip of the
// flat trace: framing and decoding a trace twice as long must not cost more
// allocations, and the bytes allocated stay within a small multiple of the
// trace's encoded size. The round trip holds the encoding, the frames and
// the deframed stream, plus the decoded slabs: contents, and 24 bytes of
// event bits and offsets per packet, which for this trace's 11-byte packets
// is about twice their size.
func TestCodecAllocsIndependentOfLength(t *testing.T) {
	_, tr, _, _ := runRecorded(t, 37, Options{Mode: ModeRecord, ValidateOutputs: true}, 200)
	const runs = 10
	codec := func(tr *trace.Trace) (allocs, perByte float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() {
			if _, err := trace.FromFrames(tr.Frames()); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up run before the measured ones.
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / float64(len(tr.Bytes()))
	}
	twice := repeated(tr, 2)
	base, basePerByte := codec(tr)
	grown, grownPerByte := codec(twice)
	if grown > base+2 {
		t.Fatalf("Frames+FromFrames allocates %.0f times over %d packets and %.0f over %d", base, tr.Len(), grown, twice.Len())
	}
	for _, perByte := range []float64{basePerByte, grownPerByte} {
		if perByte > 8 {
			t.Fatalf("Frames+FromFrames allocates %.1f bytes per trace byte, want at most 8", perByte)
		}
	}
}

// endPrefix is the reference vector clock of every cycle packet of t, the
// paper's T_expected: the per-channel count of end events in strictly
// earlier packets, as one slab in which packet p's clock is
// clockAt(slab, p, n) for t's n channels.
func endPrefix(t *trace.Trace) []uint64 {
	n := t.Meta.NumChannels()
	slab := make([]uint64, t.Len()*n)
	for pi := 1; pi < t.Len(); pi++ {
		cur := clockAt(slab, pi, n)
		copy(cur, clockAt(slab, pi-1, n))
		ends := t.Packet(pi - 1).Ends
		for ci := ends.Next(0); ci >= 0; ci = ends.Next(ci + 1) {
			cur[ci]++
		}
	}
	return slab
}

// clockAt is packet p's clock in an endPrefix slab over n channels.
func clockAt(slab []uint64, p, n int) []uint64 { return slab[p*n : (p+1)*n] }

// geq reports whether clock a ≥ clock b pointwise.
func geq(a, b []uint64) bool {
	for i := range a {
		if a[i] < b[i] {
			return false
		}
	}
	return true
}

// TestCompareOrderMatchesClocks checks Compare's one-pass order check
// against its definition: the k-th end of a channel is out of order when the
// validation trace's end counts before its packet do not dominate the
// reference's, as per-packet vector clocks.
func TestCompareOrderMatchesClocks(t *testing.T) {
	m := trace.NewMeta([]trace.ChannelInfo{
		{Name: "a", Width: 1, Dir: trace.Output},
		{Name: "b", Width: 1, Dir: trace.Output},
		{Name: "c", Width: 1, Dir: trace.Output},
		{Name: "d", Width: 1, Dir: trace.Output},
	}, true)
	n := m.NumChannels()
	random := func(r *rand.Rand) *trace.Trace {
		tr := trace.NewTrace(m)
		for i := r.Intn(30); i > 0; i-- {
			b := tr.Append(false)
			for ci := 0; ci < n; ci++ {
				if r.Intn(3) == 0 {
					b.End(ci, []byte{0})
				}
			}
		}
		return tr
	}
	clockOrder := func(ref, val *trace.Trace) [][2]uint64 {
		refVC, valVC := endPrefix(ref), endPrefix(val)
		var out [][2]uint64
		for ci := 0; ci < n; ci++ {
			for k := uint64(0); ; k++ {
				rp, vp := ref.FindEnd(ci, k), val.FindEnd(ci, k)
				if rp < 0 || vp < 0 {
					break
				}
				if !geq(clockAt(valVC, vp, n), clockAt(refVC, rp, n)) {
					out = append(out, [2]uint64{uint64(ci), k})
				}
			}
		}
		return out
	}
	clean, diverged := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		ref, val := random(r), random(r)
		if seed%2 == 0 {
			// A near miss: the reference with two end events swapped.
			val = repeated(ref, 1)
			a, b := r.Intn(n), r.Intn(n)
			ca, cb := val.EndCounts()[a], val.EndCounts()[b]
			if ca > 0 && cb > 0 {
				_ = SwapEnds(val, m.Channels[a].Name, uint64(r.Intn(int(ca))), m.Channels[b].Name, uint64(r.Intn(int(cb))))
			}
		}
		rep, err := Compare(ref, val)
		if err != nil {
			t.Fatal(err)
		}
		var got [][2]uint64
		for _, d := range rep.Divergences {
			if d.Kind == OrderDivergence {
				got = append(got, [2]uint64{uint64(d.Channel), d.Ordinal})
			}
		}
		want := clockOrder(ref, val)
		if len(got) != len(want) {
			t.Fatalf("seed %d: order divergences %v, clocks say %v", seed, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: order divergences %v, clocks say %v", seed, got, want)
			}
		}
		if len(want) == 0 {
			clean++
		} else {
			diverged++
		}
	}
	if clean < 30 || diverged < 30 {
		t.Fatalf("weak sample: %d clean and %d divergent pairs", clean, diverged)
	}
}

// TestFrontierMatchesClocks checks the replay gate against its definition:
// on random traces and random completion orders, the coordinator releases
// cycle packet p exactly when the completion counts dominate p's vector
// clock of earlier ends, as the paper's replayers compare them.
func TestFrontierMatchesClocks(t *testing.T) {
	m := trace.NewMeta([]trace.ChannelInfo{
		{Name: "a", Width: 1, Dir: trace.Input},
		{Name: "b", Width: 1, Dir: trace.Input},
		{Name: "c", Width: 1, Dir: trace.Output},
		{Name: "d", Width: 1, Dir: trace.Output},
	}, true)
	n := m.NumChannels()
	held, released := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := trace.NewTrace(m)
		for i := r.Intn(40); i > 0; i-- {
			b := tr.Append(false)
			for ci := 0; ci < n; ci++ {
				if r.Intn(3) == 0 {
					b.End(ci, []byte{0})
				}
			}
		}
		prefix := endPrefix(tr)
		left := tr.EndCounts()
		c := NewCoordinator(tr)
		for {
			for p := 0; p < tr.Len(); p++ {
				want := geq(c.Completions(), clockAt(prefix, p, n))
				if got := c.Released(p); got != want {
					t.Fatalf("seed %d: packet %d after completions %v: frontier gate %v, clocks %v",
						seed, p, c.Completions(), got, want)
				}
				if want {
					released++
				} else {
					held++
				}
			}
			var open []int
			for ci, k := range left {
				if k > 0 {
					open = append(open, ci)
				}
			}
			if len(open) == 0 {
				break
			}
			ci := open[r.Intn(len(open))]
			left[ci]--
			c.Completed(ci)
		}
	}
	if held < 1000 || released < 1000 {
		t.Fatalf("weak sample: %d held and %d released decisions", held, released)
	}
}
