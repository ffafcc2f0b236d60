package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func testMeta(validate bool) *Meta {
	return NewMeta([]ChannelInfo{
		{Name: "ocl.AW", Interface: "ocl", Width: 4, Dir: Input},
		{Name: "ocl.W", Interface: "ocl", Width: 4, Dir: Input},
		{Name: "ocl.B", Interface: "ocl", Width: 1, Dir: Output},
		{Name: "pcim.AW", Interface: "pcim", Width: 8, Dir: Output},
		{Name: "pcim.W", Interface: "pcim", Width: 64, Dir: Output},
	}, validate)
}

func TestMetaIndexing(t *testing.T) {
	m := testMeta(false)
	if m.NumChannels() != 5 || m.NumInputs() != 2 {
		t.Fatalf("channels=%d inputs=%d", m.NumChannels(), m.NumInputs())
	}
	if got := m.InputChannels(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("input channels %v", got)
	}
	if got := m.OutputChannels(); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("output channels %v", got)
	}
	if m.InputIndex(1) != 1 || m.InputIndex(2) != -1 {
		t.Fatal("InputIndex wrong")
	}
	if m.ChannelByName("pcim.W") != 4 || m.ChannelByName("nope") != -1 {
		t.Fatal("ChannelByName wrong")
	}
}

func TestBitVecBasics(t *testing.T) {
	b := NewBitVec(70)
	b.Set(0)
	b.Set(69)
	b.Set(64)
	if !b.Get(0) || !b.Get(69) || !b.Get(64) || b.Get(1) {
		t.Fatal("get/set wrong")
	}
	if b.Count() != 3 {
		t.Fatalf("count=%d", b.Count())
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 2 {
		t.Fatal("clear wrong")
	}
	if b.String() != "{0,69}" {
		t.Fatalf("string %q", b.String())
	}
}

func TestBitVecBytesRoundTrip(t *testing.T) {
	f := func(seed int64, nBits uint8) bool {
		n := int(nBits)%100 + 1
		r := rand.New(rand.NewSource(seed))
		b := NewBitVec(n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 1 {
				b.Set(i)
			}
		}
		enc := appendBits(nil, b.words, ByteLen(n))
		got := NewBitVec(n)
		loadBits(got.words, enc)
		return len(enc) == ByteLen(n) && !padded(enc, n) && got.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitVecOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBitVec(8).Get(8)
}

func randTrace(t *testing.T, seed int64, validate bool, nPackets int) *Trace {
	t.Helper()
	m := testMeta(validate)
	r := rand.New(rand.NewSource(seed))
	tr := NewTrace(m)
	inFlight := make([]bool, m.NumChannels())
	for p := 0; p < nPackets; p++ {
		var starts, ends []int
		// Input starts.
		for _, ci := range m.InputChannels() {
			if !inFlight[ci] && r.Intn(3) == 0 {
				starts = append(starts, ci)
				inFlight[ci] = true
			}
		}
		// Ends on in-flight inputs and randomly on outputs.
		for ci := 0; ci < m.NumChannels(); ci++ {
			if m.Channels[ci].Dir == Input {
				if inFlight[ci] && r.Intn(2) == 0 {
					ends = append(ends, ci)
					inFlight[ci] = false
				}
			} else if r.Intn(4) == 0 {
				ends = append(ends, ci)
			}
		}
		if len(starts)+len(ends) == 0 {
			continue
		}
		b := tr.Append(false)
		for _, ci := range starts {
			c := make([]byte, m.Channels[ci].Width)
			r.Read(c)
			b.Start(ci, c)
		}
		for _, ci := range ends {
			var c []byte
			if validate && m.Channels[ci].Dir == Output {
				c = make([]byte, m.Channels[ci].Width)
				r.Read(c)
			}
			b.End(ci, c)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	return tr
}

func TestCodecRoundTrip(t *testing.T) {
	for _, validate := range []bool{false, true} {
		tr := randTrace(t, 42, validate, 200)
		got, err := FromBytes(tr.Bytes())
		if err != nil {
			t.Fatalf("validate=%v: %v", validate, err)
		}
		if got.Meta.ValidateOutputs != validate {
			t.Fatal("flags lost")
		}
		if !reflect.DeepEqual(got.Meta.Channels, tr.Meta.Channels) {
			t.Fatal("channel meta lost")
		}
		if got.Len() != tr.Len() {
			t.Fatalf("packet count %d vs %d", got.Len(), tr.Len())
		}
		for i := 0; i < got.Len(); i++ {
			gp, tp := got.Packet(i), tr.Packet(i)
			if !gp.Starts.Equal(tp.Starts) || !gp.Ends.Equal(tp.Ends) || !bytes.Equal(gp.Body, tp.Body) || gp.Lossy != tp.Lossy {
				t.Fatalf("packet %d differs", i)
			}
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := randTrace(t, seed, seed%2 == 0, 50)
		got, err := FromBytes(tr.Bytes())
		if err != nil {
			return false
		}
		return got.SizeBytes() == tr.SizeBytes() && got.TotalTransactions() == tr.TotalTransactions()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecSaveLoad(t *testing.T) {
	tr := randTrace(t, 7, true, 100)
	path := t.TempDir() + "/t.vidt"
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalTransactions() != tr.TotalTransactions() {
		t.Fatal("file round trip lost transactions")
	}
}

func TestCodecRejectsBadMagic(t *testing.T) {
	if _, err := FromBytes([]byte("NOPE-nothing")); err == nil {
		t.Fatal("expected error")
	}
}

func TestCodecRejectsTruncated(t *testing.T) {
	b := randTrace(t, 1, false, 50).Bytes()
	if _, err := FromBytes(b[:len(b)-3]); err == nil {
		t.Fatal("expected error on truncated trace")
	}
}

func TestValidateCatchesContentCountMismatch(t *testing.T) {
	m := testMeta(false)
	tr := NewTrace(m)
	tr.Append(false).Start(0, nil) // start without content
	if err := tr.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestValidateCatchesDoubleStart(t *testing.T) {
	m := testMeta(false)
	tr := NewTrace(m)
	for i := 0; i < 2; i++ {
		tr.Append(false).Start(0, make([]byte, 4))
	}
	if err := tr.Validate(); err == nil {
		t.Fatal("expected error: channel starts twice without ending")
	}
}

func TestEventsAndTransactions(t *testing.T) {
	m := testMeta(true)
	tr := NewTrace(m)

	// Packet 0: input ch0 starts with content A.
	tr.Append(false).Start(0, []byte{0xA, 0, 0, 0})
	// Packet 1: ch0 ends; output ch2 ends with content B.
	tr.Append(false).End(0, nil).End(2, []byte{0xB})

	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Kind != StartEvent || evs[0].Channel != 0 || evs[0].Content[0] != 0xA {
		t.Fatalf("event 0 wrong: %+v", evs[0])
	}
	ends := tr.EndEvents()
	if len(ends) != 2 {
		t.Fatalf("end events %d", len(ends))
	}
	txns := tr.Transactions(0)
	if len(txns) != 1 || txns[0].StartPacket != 0 || txns[0].EndPacket != 1 {
		t.Fatalf("ch0 txns %+v", txns)
	}
	otxns := tr.Transactions(2)
	if len(otxns) != 1 || otxns[0].EndPacket != 1 || otxns[0].Content[0] != 0xB {
		t.Fatalf("ch2 txns %+v", otxns)
	}
	if tr.FindEnd(2, 0) != 1 || tr.FindEnd(2, 1) != -1 {
		t.Fatal("FindEnd wrong")
	}
}

func TestTraceSizeAccounting(t *testing.T) {
	m := testMeta(false)
	tr := NewTrace(m)
	tr.Append(false).Start(1, make([]byte, 4))
	// Starts: ceil(2/8)=1 byte; Ends: ceil(5/8)=1 byte; content 4 bytes.
	if got := tr.SizeBytes(); got != 6 {
		t.Fatalf("size=%d want 6", got)
	}
}
