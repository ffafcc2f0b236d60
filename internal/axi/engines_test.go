package axi

import (
	"bytes"
	"testing"

	"vidi/internal/sim"
)

func TestMaxLengthBurst(t *testing.T) {
	s := sim.New()
	iface := NewFull(s, "dma")
	mem := NewMemory(1 << 13)
	wm := NewWriteManager("wm", iface)
	rm := NewReadManager("rm", iface)
	sub := NewMemSubordinate("mem", iface, mem)
	s.Register(wm, rm, sub)
	NewProtocolChecker("chk", iface.Channels()...).Install(s)

	// 64 beats = 4096 bytes, the AXI maximum burst (Len field saturates).
	data := make([]byte, 64*FullDataBytes)
	for i := range data {
		data[i] = byte(i * 7)
	}
	done := false
	wm.Push(WriteOp{Addr: 0, Data: data, Done: func(uint8) { done = true }})
	if _, err := s.Run(5000, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem.Read(0, len(data)), data) {
		t.Fatal("max burst corrupted")
	}
	var got []byte
	rm.Push(ReadOp{Addr: 0, Beats: 64, Done: func(d []byte, _ uint8) { got = d }})
	if _, err := s.Run(5000, func() bool { return got != nil }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("max burst read corrupted")
	}
}

func TestMultipleOutstandingReads(t *testing.T) {
	s := sim.New()
	iface := NewFull(s, "dma")
	mem := NewMemory(1 << 12)
	want := make([]byte, mem.Size())
	for i := range want {
		want[i] = byte(i ^ 0x3c)
	}
	mem.Write(0, want)
	rm := NewReadManager("rm", iface)
	sub := NewMemSubordinate("mem", iface, mem)
	rng := sim.NewRand(2)
	sub.RespDelay = func() int { return rng.Intn(5) }
	s.Register(rm, sub)
	NewProtocolChecker("chk", iface.Channels()...).Install(s)

	const n = 6
	results := make([][]byte, n)
	doneCount := 0
	for i := 0; i < n; i++ {
		i := i
		rm.Push(ReadOp{Addr: uint64(i * 128), Beats: 2, Done: func(d []byte, _ uint8) {
			results[i] = d
			doneCount++
		}})
	}
	if _, err := s.Run(5000, func() bool { return doneCount == n }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(results[i], want[i*128:i*128+128]) {
			t.Fatalf("read %d out of order or corrupted", i)
		}
	}
}

func TestRegSubordinateBackToBackOps(t *testing.T) {
	s := sim.New()
	iface := NewLite(s, "ocl")
	wm := NewWriteManager("wm", iface)
	rm := NewReadManager("rm", iface)
	var writes []uint64
	sub := NewRegSubordinate("regs", iface)
	sub.OnWrite = func(addr uint64, val uint32) { writes = append(writes, addr) }
	sub.OnRead = func(addr uint64) uint32 { return uint32(addr) }
	s.Register(wm, rm, sub)
	NewProtocolChecker("chk", iface.Channels()...).Install(s)

	const n = 16
	done := 0
	var reads []uint32
	for i := 0; i < n; i++ {
		wm.Push(WriteOp{Addr: uint64(i * 4), Data: []byte{byte(i), 0, 0, 0}, Done: func(uint8) { done++ }})
		rm.Push(ReadOp{Addr: uint64(i * 4), Done: func(d []byte, _ uint8) {
			reads = append(reads, uint32(d[0])|uint32(d[1])<<8)
			done++
		}})
	}
	if _, err := s.Run(5000, func() bool { return done == 2*n }); err != nil {
		t.Fatal(err)
	}
	if len(writes) != n || len(reads) != n {
		t.Fatalf("writes=%d reads=%d", len(writes), len(reads))
	}
	for i := 0; i < n; i++ {
		if writes[i] != uint64(i*4) {
			t.Fatalf("write %d to %#x, want %#x", i, writes[i], i*4)
		}
		if reads[i] != uint32(i*4) {
			t.Fatalf("read %d returned %d, want %d", i, reads[i], i*4)
		}
	}
}

func TestWriteManagerLinkGating(t *testing.T) {
	s := sim.New()
	iface := NewFull(s, "dma")
	mem := NewMemory(1 << 14)
	wm := NewWriteManager("wm", iface)
	link := NewTokenBucket("link", 8, 64) // 8 B/cy: one beat per 8 cycles
	wm.Link = link
	sub := NewMemSubordinate("mem", iface, mem)
	s.Register(wm, sub, link)

	const beats = 16
	done := false
	wm.Push(WriteOp{Addr: 0, Data: make([]byte, beats*FullDataBytes), Done: func(uint8) { done = true }})
	cycles, err := s.Run(10000, func() bool { return done })
	if err != nil {
		t.Fatal(err)
	}
	if min := uint64((beats - 2) * FullDataBytes / 8); cycles < min {
		t.Fatalf("link gating ineffective: %d cycles < %d", cycles, min)
	}
}

func TestTokenBucketRefillClamp(t *testing.T) {
	b := NewTokenBucket("b", 10, 100)
	if !b.Ok() {
		t.Fatal("fresh bucket should be OK")
	}
	b.Spend(150)
	if b.Ok() {
		t.Fatal("overdrawn bucket should not be OK")
	}
	for i := 0; i < 5; i++ {
		b.Tick()
	}
	if !b.Ok() {
		t.Fatal("bucket should recover after refills")
	}
	for i := 0; i < 100; i++ {
		b.Tick()
	}
	b.Spend(100)
	if b.Ok() {
		// Balance was clamped at MaxBurst=100, so spending 100 lands at 0,
		// which is still OK (>= 0).
		t.Log("balance exactly zero remains OK, as designed")
	}
	b.Spend(1)
	if b.Ok() {
		t.Fatal("clamp failed: balance exceeded MaxBurst")
	}
}

func TestLitePayloadWidthsMatchChannelWidths(t *testing.T) {
	s := sim.New()
	lite := NewLite(s, "l")
	full := NewFull(s, "f")
	cases := []struct {
		ch   int
		lite int
		full int
	}{
		{0, LiteAWWidth, FullAWWidth},
		{1, LiteWWidth, FullWWidth},
		{2, LiteBWidth, FullBWidth},
		{3, LiteARWidth, FullARWidth},
		{4, LiteRWidth, FullRWidth},
	}
	for _, c := range cases {
		if lite.Channels()[c.ch].Width() != c.lite {
			t.Fatalf("lite channel %d width %d, want %d", c.ch, lite.Channels()[c.ch].Width(), c.lite)
		}
		if full.Channels()[c.ch].Width() != c.full {
			t.Fatalf("full channel %d width %d, want %d", c.ch, full.Channels()[c.ch].Width(), c.full)
		}
	}
	// Encoded payloads must exactly fill their channels.
	var b [FullWWidth]byte
	if len(AWPayload{Addr: 1, Len: 2}.Encode(b[:], false)) != FullAWWidth {
		t.Fatal("AW payload size mismatch")
	}
	if len(WPayload{}.Encode(b[:], false)) != FullWWidth {
		t.Fatal("W payload size mismatch")
	}
	if len(RPayload{}.Encode(b[:], false)) != FullRWidth {
		t.Fatal("R payload size mismatch")
	}
}

func TestMemSubordinateOutOfRangeRecordsError(t *testing.T) {
	s := sim.New()
	iface := NewFull(s, "dma")
	mem := NewMemory(64)
	wm := NewWriteManager("wm", iface)
	sub := NewMemSubordinate("mem", iface, mem)
	s.Register(wm, sub)
	done := false
	wm.Push(WriteOp{Addr: 1 << 20, Data: make([]byte, 64), Done: func(uint8) { done = true }})
	if _, err := s.Run(1000, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	if sub.Err == nil {
		t.Fatal("out-of-range write should record an error")
	}
}

func TestMemSubordinateBurstStraddlingEndWritesInRangeBytes(t *testing.T) {
	s := sim.New()
	iface := NewFull(s, "dma")
	const size, addr = 224, 192
	mem := NewMemory(size)
	wm := NewWriteManager("wm", iface)
	sub := NewMemSubordinate("mem", iface, mem)
	s.Register(wm, sub)
	// One beat at 192 covers [192,256); memory ends at 224. Bytes 10 and 11
	// are masked off, so the strobe runs are [192,202), in range, and
	// [204,256), which straddles the end.
	data := make([]byte, FullDataBytes)
	strb := make([]byte, len(data))
	for i := range data {
		data[i] = byte(i + 1)
		strb[i] = 1
	}
	strb[10], strb[11] = 0, 0
	done := false
	wm.Push(WriteOp{Addr: addr, Data: data, Strb: strb, Done: func(uint8) { done = true }})
	if _, err := s.Run(1000, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	if sub.Err == nil {
		t.Fatal("straddling write should record an error")
	}
	want := append([]byte(nil), data[:size-addr]...)
	want[10], want[11] = 0, 0
	if got := mem.Read(addr, size-addr); !bytes.Equal(got, want) {
		t.Fatalf("in-range bytes of the straddling burst:\n got %v\nwant %v", got, want)
	}
	if got := mem.Read(0, addr); !bytes.Equal(got, make([]byte, addr)) {
		t.Fatal("bytes below the burst changed")
	}
}

// TestEnginesAllocateNothingPerBeat drives warmed-up interfaces through
// Full write and read bursts (WriteManager and ReadManager to a
// MemSubordinate) and Lite writes and reads (to a RegSubordinate), under a
// protocol checker. The only allocation allowed is the buffer each read
// hands to Done.
func TestEnginesAllocateNothingPerBeat(t *testing.T) {
	s := sim.New()
	full, lite := NewFull(s, "dma"), NewLite(s, "ocl")
	fw, fr := NewWriteManager("fw", full), NewReadManager("fr", full)
	lw, lr := NewWriteManager("lw", lite), NewReadManager("lr", lite)
	regs := NewRegSubordinate("regs", lite)
	var reg uint32
	regs.OnWrite = func(_ uint64, v uint32) { reg = v }
	regs.OnRead = func(uint64) uint32 { return reg }
	s.Register(fw, fr, lw, lr, NewMemSubordinate("mem", full, NewMemory(1<<13)), regs)
	chk := NewProtocolChecker("chk", full.Channels()...)
	chk.Add(lite.Channels()...)
	chk.Install(s)

	data := make([]byte, 4*FullDataBytes)
	word := []byte{1, 2, 3, 4}
	pending := 0
	wrote := func(uint8) { pending-- }
	read := func([]byte, uint8) { pending-- }
	const readOps = 2
	round := func() {
		pending = 4
		fw.Push(WriteOp{Addr: 0, Data: data, Done: wrote})
		fr.Push(ReadOp{Addr: 1024, Beats: 4, Done: read})
		lw.Push(WriteOp{Addr: 0x10, Data: word, Done: wrote})
		lr.Push(ReadOp{Addr: 0x10, Done: read})
		for pending > 0 {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm up: memory pages, queue arrays and the checker's buffers.
	for range 3 {
		round()
	}
	if a := testing.AllocsPerRun(20, round); a != readOps {
		t.Fatalf("%v allocations per round of 10 beats, want %d (the buffers handed to Done)", a, readOps)
	}
}
