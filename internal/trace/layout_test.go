package trace

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"
)

// TestBitVecNext walks the set bits of a vector across word boundaries.
func TestBitVecNext(t *testing.T) {
	b := NewBitVec(130)
	want := []int{0, 63, 64, 127, 129}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	for i := b.Next(0); i >= 0; i = b.Next(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("Next walked %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("Next walked %v, want %v", got, want)
		}
	}
	if b.Next(130) != -1 || NewBitVec(0).Next(0) != -1 || b.Count() != len(want) {
		t.Fatal("Next past the end or Count wrong")
	}
}

// TestBuilderPlacesContentsInWireOrder adds the events of one packet in
// reverse order; the contents must still come out starts first, each group
// in channel order, so the packet encodes as if built in order.
func TestBuilderPlacesContentsInWireOrder(t *testing.T) {
	m := testMeta(true)
	a, b := NewTrace(m), NewTrace(m)
	a.Append(false).Start(0, []byte{1, 1, 1, 1}).Start(1, []byte{2, 2, 2, 2}).
		End(2, []byte{3}).End(3, bytes.Repeat([]byte{4}, 8))
	b.Append(false).End(3, bytes.Repeat([]byte{4}, 8)).End(2, []byte{3}).
		Start(1, []byte{2, 2, 2, 2}).Start(0, []byte{1, 1, 1, 1})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("event order changed the packet: %x vs %x", a.Packet(0).Body, b.Packet(0).Body)
	}
	p := b.Packet(0)
	for ci, want := range [][]byte{{1, 1, 1, 1}, {2, 2, 2, 2}, {3}, bytes.Repeat([]byte{4}, 8), nil} {
		if got := p.Channel(ci).Content; !bytes.Equal(got, want) {
			t.Fatalf("channel %d content %x, want %x", ci, got, want)
		}
	}
}

// TestTruncateClearsLossy: packets appended after a truncation start with
// no lossy mark, even where a dropped packet had one.
func TestTruncateClearsLossy(t *testing.T) {
	tr := lossyTrace(t)
	tr.Truncate(1)
	if tr.Len() != 1 || tr.LossyPackets() != 0 || tr.SizeBytes() != tr.Packet(0).Size() {
		t.Fatalf("Truncate(1): %d packets, %d lossy, %d bytes", tr.Len(), tr.LossyPackets(), tr.SizeBytes())
	}
	tr.Append(false).End(0, nil)
	if tr.Packet(1).Lossy {
		t.Fatal("a packet appended after Truncate inherited a dropped lossy mark")
	}
}

// packetOffset returns where packet i of tr starts in tr.Bytes().
func packetOffset(tr *Trace, i int) int {
	off := len(NewTrace(tr.Meta).Bytes())
	for k := 0; k < i; k++ {
		off += 1 + tr.Packet(k).Size() + 4
	}
	return off
}

// reCRC recomputes the CRC of packet i after a deliberate edit, so that only
// the check under test can reject it.
func reCRC(tr *Trace, b []byte, i int) {
	off := packetOffset(tr, i)
	end := off + 1 + tr.Packet(i).Size()
	putU32(b[end:], crc32.ChecksumIEEE(b[off:end]))
}

// wantCorrupt fails unless err is a *CorruptError at site.
func wantCorrupt(t *testing.T, what string, err error, site string) {
	t.Helper()
	var ce *CorruptError
	if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: want a *CorruptError, got %v", what, err)
	}
	if ce.Site != site {
		t.Fatalf("%s: site %q, want %q (%v)", what, ce.Site, site, err)
	}
}

// TestDecodeRejectsPaddingBits: the bits past NumInputs and NumChannels in
// the last Starts and Ends byte must be zero. A decoder that accepted them
// would re-encode the trace to different bytes, or load an end event on a
// channel that does not exist.
func TestDecodeRejectsPaddingBits(t *testing.T) {
	tr := randTrace(t, 3, true, 20) // 2 inputs, 5 channels: one byte each
	for _, field := range []int{1, 2} {
		b := tr.Bytes()
		b[packetOffset(tr, 4)+field] |= 0x80
		reCRC(tr, b, 4)
		_, err := FromBytes(b)
		wantCorrupt(t, "padding bit", err, "packet 4")
	}
}

// TestDecodeRejectsTrailingBytes: bytes after the last packet the count
// announces are damage, not slack.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	tr := randTrace(t, 4, true, 20)
	_, err := FromBytes(append(tr.Bytes(), 0))
	wantCorrupt(t, "trailing byte", err, "trailer")
	// A whole well-formed extra packet is trailing bytes too.
	two := NewTrace(tr.Meta)
	two.Append(false).End(2, []byte{1})
	two.Append(false).End(2, []byte{2})
	one := NewTrace(tr.Meta)
	one.Append(false).End(2, []byte{1})
	b1, b2 := one.Bytes(), two.Bytes()
	_, err = FromBytes(append(b1, b2[packetOffset(two, 1):]...))
	wantCorrupt(t, "extra packet", err, "trailer")
}

// TestCorruptErrorSites pins the Site of a *CorruptError for damage in each
// region of the encoding and in a storage frame.
func TestCorruptErrorSites(t *testing.T) {
	tr := randTrace(t, 6, true, 40)
	valid := tr.Bytes()
	flip := func(i int) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= 0x10
		return b
	}
	countAt := packetOffset(tr, 0) - 12 // the packet count, then its CRC
	for _, c := range []struct {
		at   int
		site string
	}{
		{len(magic) + 5, "header"},
		{countAt, "packet count"},
		{packetOffset(tr, 3) + 1 + tr.Packet(3).Size() - 1, "packet 3"},
	} {
		_, err := FromBytes(flip(c.at))
		wantCorrupt(t, c.site, err, c.site)
	}
	frames := tr.Frames()
	frames[2][frameHeaderSize+7] ^= 0x10
	_, err := FromFrames(frames)
	wantCorrupt(t, "frame", err, "frame 2")
}
