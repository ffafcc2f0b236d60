package axi

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"vidi/internal/sim"
)

func TestPayloadCodecsRoundTrip(t *testing.T) {
	f := func(addr uint64, ln uint8, lite bool) bool {
		if lite {
			ln = 0
			addr &= 0xffffffff
		}
		aw := AWPayload{Addr: addr, Len: ln}
		if DecodeAW(aw.Encode(lite), lite) != aw {
			return false
		}
		ar := ARPayload{Addr: addr, Len: ln}
		return DecodeAR(ar.Encode(lite), lite) == ar
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWPayloadRoundTripFull(t *testing.T) {
	f := func(seed int64, last bool) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, FullDataBytes)
		r.Read(data)
		strb := make([]byte, FullDataBytes)
		for i := range strb {
			strb[i] = byte(r.Intn(2))
		}
		p := WPayload{Data: data, Strb: strb, Last: last}
		got := DecodeW(p.Encode(false), false)
		return bytes.Equal(got.Data, data) && bytes.Equal(got.Strb, strb) && got.Last == last
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWPayloadRoundTripLite(t *testing.T) {
	p := WPayload{Data: []byte{1, 2, 3, 4}, Strb: []byte{1, 0, 1, 1}}
	got := DecodeW(p.Encode(true), true)
	if !bytes.Equal(got.Data, p.Data) || !bytes.Equal(got.Strb, p.Strb) {
		t.Fatalf("got %+v", got)
	}
}

func TestRPayloadRoundTrip(t *testing.T) {
	p := RPayload{Data: make([]byte, FullDataBytes), Resp: RespSLVERR, Last: true}
	p.Data[0], p.Data[63] = 0xaa, 0x55
	got := DecodeR(p.Encode(false), false)
	if !bytes.Equal(got.Data, p.Data) || got.Resp != RespSLVERR || !got.Last {
		t.Fatalf("got %+v", got)
	}
}

func TestMemoryPagesAndBounds(t *testing.T) {
	const size = 4 * memPageSize
	m := NewMemory(size)
	if m.Size() != size {
		t.Fatalf("Size()=%d want %d", m.Size(), size)
	}

	// A write straddling the first page boundary lands on both pages.
	data := []byte{1, 2, 3, 4, 5, 6}
	if err := m.WriteAt(memPageSize-3, data); err != nil {
		t.Fatal(err)
	}
	if got := m.Read(memPageSize-3, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("straddling read %v want %v", got, data)
	}
	if m.pages[0] == nil || m.pages[1] == nil || m.pages[2] != nil || m.pages[3] != nil {
		t.Fatal("pages 0 and 1 should be allocated, 2 and 3 not")
	}

	// Never-written bytes read as zero: around the written run, and across
	// the boundary from written page 1 into unallocated page 2.
	if got := m.Read(memPageSize-8, 5); !bytes.Equal(got, make([]byte, 5)) {
		t.Fatalf("unwritten bytes before the run read %v", got)
	}
	buf := bytes.Repeat([]byte{0xff}, 16)
	if err := m.ReadAt(2*memPageSize-8, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatalf("unwritten bytes next to a written page read %v", buf)
	}
	if m.pages[2] != nil {
		t.Fatal("a read allocated a page")
	}

	// An access ending exactly at Size succeeds.
	if err := m.WriteAt(size-4, []byte{9, 8, 7, 6}); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadAt(size-4, buf[:4]); err != nil || !bytes.Equal(buf[:4], []byte{9, 8, 7, 6}) {
		t.Fatalf("read at end: %v %v", buf[:4], err)
	}
	if err := m.ReadAt(size, nil); err != nil {
		t.Fatalf("empty read at Size: %v", err)
	}

	// One byte past the end fails and changes nothing.
	if err := m.WriteAt(size-3, []byte{1, 1, 1, 1}); err == nil {
		t.Fatal("expected out-of-range write error")
	}
	if err := m.WriteAt(2*memPageSize+5, make([]byte, size)); err == nil {
		t.Fatal("expected out-of-range write error")
	}
	if got := m.Read(size-4, 4); !bytes.Equal(got, []byte{9, 8, 7, 6}) {
		t.Fatalf("failed write changed memory: %v", got)
	}
	if m.pages[2] != nil {
		t.Fatal("a failed write allocated a page")
	}
	copy(buf, "unchanged")
	if err := m.ReadAt(size-3, buf[:4]); err == nil {
		t.Fatal("expected out-of-range read error")
	}
	if err := m.ReadAt(^uint64(0), buf[:1]); err == nil {
		t.Fatal("expected out-of-range read error for a wrapping address")
	}
	if string(buf[:9]) != "unchanged" {
		t.Fatalf("failed read filled the buffer: %q", buf[:9])
	}
	for _, f := range []func(){
		func() { m.Read(size-3, 4) },
		func() { m.Write(size, []byte{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range Read/Write should panic")
				}
			}()
			f()
		}()
	}
}

// buildWriteSystem wires a WriteManager to a MemSubordinate over a full AXI
// interface with a protocol checker installed.
func buildWriteSystem(t *testing.T, seed int64) (*sim.Simulator, *WriteManager, *ReadManager, *Memory) {
	t.Helper()
	s := sim.New()
	iface := NewFull(s, "dma")
	mem := NewMemory(4096)
	wm := NewWriteManager("wm", iface)
	rm := NewReadManager("rm", iface)
	sub := NewMemSubordinate("mem", iface, mem)
	if seed != 0 {
		rng := sim.NewRand(seed)
		wm.AWGap = sim.GapPolicy(rng, 0, 3)
		wm.WGap = sim.GapPolicy(rng, 0, 2)
		sub.RespDelay = func() int { return rng.Intn(4) }
	}
	s.Register(wm, rm, sub)
	NewProtocolChecker("chk", iface.Channels()...).Install(s)
	return s, wm, rm, mem
}

func TestWriteBurstReachesMemory(t *testing.T) {
	s, wm, _, mem := buildWriteSystem(t, 0)
	data := make([]byte, 130) // 3 beats, last partial
	for i := range data {
		data[i] = byte(i)
	}
	done := false
	wm.Push(WriteOp{Addr: 256, Data: data, Done: func(resp uint8) {
		if resp != RespOKAY {
			t.Errorf("resp=%d", resp)
		}
		done = true
	}})
	if _, err := s.Run(1000, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem.Read(256, 130), data) {
		t.Fatal("memory content wrong after burst write")
	}
	// Bytes beyond the partial beat are zero-strobed and must be untouched.
	for i, b := range mem.Read(256+130, 192-130) {
		if b != 0 {
			t.Fatalf("byte %d written beyond strobe", 256+130+i)
		}
	}
}

func TestStrobeMasksBytes(t *testing.T) {
	s, wm, _, mem := buildWriteSystem(t, 0)
	mem.Write(0, bytes.Repeat([]byte{0xee}, int(mem.Size())))
	data := make([]byte, 64)
	strb := make([]byte, 64)
	for i := range data {
		data[i] = byte(i + 1)
		if i%2 == 0 {
			strb[i] = 1
		}
	}
	done := false
	wm.Push(WriteOp{Addr: 0, Data: data, Strb: strb, Done: func(uint8) { done = true }})
	if _, err := s.Run(1000, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	got := mem.Read(0, 64)
	for i := 0; i < 64; i++ {
		want := byte(0xee)
		if i%2 == 0 {
			want = byte(i + 1)
		}
		if got[i] != want {
			t.Fatalf("byte %d: got %#x want %#x", i, got[i], want)
		}
	}
}

func TestReadBurstReturnsMemory(t *testing.T) {
	s, _, rm, mem := buildWriteSystem(t, 0)
	want := make([]byte, 256)
	for i := range want {
		want[i] = byte(i ^ 0x5a)
	}
	mem.Write(512, want)
	var got []byte
	rm.Push(ReadOp{Addr: 512, Beats: 4, Done: func(data []byte, resp uint8) { got = data }})
	if _, err := s.Run(1000, func() bool { return got != nil }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read data mismatch")
	}
}

func TestJitteredWritesKeepProtocolAndOrder(t *testing.T) {
	s, wm, rm, mem := buildWriteSystem(t, 99)
	const n = 8
	completions := 0
	for i := 0; i < n; i++ {
		data := make([]byte, 64)
		for j := range data {
			data[j] = byte(i*64 + j)
		}
		wm.Push(WriteOp{Addr: uint64(i * 64), Data: data, Done: func(uint8) { completions++ }})
	}
	if _, err := s.Run(5000, func() bool { return completions == n }); err != nil {
		t.Fatal(err)
	}
	var got []byte
	rm.Push(ReadOp{Addr: 0, Beats: n, Done: func(d []byte, _ uint8) { got = d }})
	if _, err := s.Run(5000, func() bool { return got != nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n*64; i++ {
		if got[i] != byte(i) {
			t.Fatalf("byte %d: got %#x", i, got[i])
		}
	}
	_ = mem
}

func TestRegSubordinateDispatch(t *testing.T) {
	s := sim.New()
	iface := NewLite(s, "ocl")
	wm := NewWriteManager("wm", iface)
	rm := NewReadManager("rm", iface)
	regs := map[uint64]uint32{}
	sub := NewRegSubordinate("regs", iface)
	sub.OnWrite = func(addr uint64, val uint32) { regs[addr] = val }
	sub.OnRead = func(addr uint64) uint32 { return regs[addr] + 1 }
	s.Register(wm, rm, sub)
	NewProtocolChecker("chk", iface.Channels()...).Install(s)

	done := false
	wm.Push(WriteOp{Addr: 0x10, Data: []byte{0x34, 0x12, 0, 0}, Done: func(uint8) { done = true }})
	if _, err := s.Run(200, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	if regs[0x10] != 0x1234 {
		t.Fatalf("reg=%#x", regs[0x10])
	}
	var got uint32
	ok := false
	rm.Push(ReadOp{Addr: 0x10, Done: func(d []byte, _ uint8) {
		got = uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24
		ok = true
	}})
	if _, err := s.Run(200, func() bool { return ok }); err != nil {
		t.Fatal(err)
	}
	if got != 0x1235 {
		t.Fatalf("read=%#x want 0x1235", got)
	}
}

func TestTokenBucketThrottlesBandwidth(t *testing.T) {
	s := sim.New()
	iface := NewFull(s, "dma")
	mem := NewMemory(1 << 16)
	wm := NewWriteManager("wm", iface)
	sub := NewMemSubordinate("mem", iface, mem)
	// 16 bytes/cycle: a 64-byte beat every 4 cycles on average.
	link := NewTokenBucket("link", 16, 64)
	sub.Link = link
	s.Register(wm, sub, link)
	NewProtocolChecker("chk", iface.Channels()...).Install(s)

	const n = 32
	completions := 0
	for i := 0; i < n; i++ {
		wm.Push(WriteOp{Addr: uint64(i * 64), Data: make([]byte, 64), Done: func(uint8) { completions++ }})
	}
	cycles, err := s.Run(100000, func() bool { return completions == n })
	if err != nil {
		t.Fatal(err)
	}
	// n beats at 16 B/cy should take at least (n*64 - burst credit)/16
	// cycles; the post-paid model grants up to one extra beat of credit.
	if min := uint64((n*64 - 2*64) / 16); cycles < min {
		t.Fatalf("finished in %d cycles, bandwidth cap implies ≥ %d", cycles, min)
	}
}

// violator asserts valid then changes data mid-transaction.
type violator struct {
	ch    *sim.Channel
	cycle int
}

func (v *violator) Name() string { return "violator" }
func (v *violator) Eval() {
	v.ch.Valid.Set(true)
	v.ch.Data.SetUint64(uint64(v.cycle)) // data changes every cycle: illegal
}
func (v *violator) Tick() { v.cycle++ }

func TestProtocolCheckerCatchesDataChange(t *testing.T) {
	s := sim.New()
	ch := s.NewChannel("bad", 8)
	s.Register(&violator{ch: ch})
	NewProtocolChecker("chk", ch).Install(s)
	_, err := s.Run(10, nil)
	if err == nil {
		t.Fatal("expected protocol violation")
	}
}

// dropper asserts valid for one cycle then deasserts without a handshake.
type dropper struct {
	ch *sim.Channel
	n  int
}

func (d *dropper) Name() string { return "dropper" }
func (d *dropper) Eval()        { d.ch.Valid.Set(d.n == 1); d.ch.Data.SetUint64(7) }
func (d *dropper) Tick()        { d.n++ }

func TestProtocolCheckerCatchesValidDrop(t *testing.T) {
	s := sim.New()
	ch := s.NewChannel("bad", 8)
	s.Register(&dropper{ch: ch})
	NewProtocolChecker("chk", ch).Install(s)
	_, err := s.Run(10, nil)
	if err == nil {
		t.Fatal("expected protocol violation for valid drop")
	}
}

func TestBRespOnlyAfterAWAndW(t *testing.T) {
	// Observe that the subordinate never fires B before both AW and W have
	// completed — the ordering requirement of Fig 2 in the paper.
	s := sim.New()
	iface := NewFull(s, "dma")
	mem := NewMemory(4096)
	wm := NewWriteManager("wm", iface)
	sub := NewMemSubordinate("mem", iface, mem)
	rng := sim.NewRand(5)
	wm.AWGap = sim.GapPolicy(rng, 0, 5)
	wm.WGap = sim.GapPolicy(rng, 0, 5)
	s.Register(wm, sub)

	var awEnds, wEnds, bEnds int
	orderOK := true
	probe := &orderProbe{iface: iface, awEnds: &awEnds, wEnds: &wEnds, bEnds: &bEnds, ok: &orderOK}
	s.Register(probe)

	done := 0
	for i := 0; i < 5; i++ {
		wm.Push(WriteOp{Addr: uint64(i * 128), Data: make([]byte, 128), Done: func(uint8) { done++ }})
	}
	if _, err := s.Run(5000, func() bool { return done == 5 }); err != nil {
		t.Fatal(err)
	}
	if !orderOK {
		t.Fatal("a B response fired before its AW/W transactions completed")
	}
}

type orderProbe struct {
	iface                *Interface
	awEnds, wEnds, bEnds *int
	ok                   *bool
}

func (p *orderProbe) Name() string { return "probe" }
func (p *orderProbe) Eval()        {}
func (p *orderProbe) Tick() {
	if p.iface.AW.Fired() {
		*p.awEnds++
	}
	if p.iface.W.Fired() {
		*p.wEnds += 1
	}
	if p.iface.B.Fired() {
		*p.bEnds++
		// The (n+1)-th B requires at least n+1 AWs and n+1 bursts done.
		if *p.awEnds < *p.bEnds {
			*p.ok = false
		}
	}
}
