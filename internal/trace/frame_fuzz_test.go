package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// fuzzSeedTrace builds a small valid two-channel trace for seeding the
// native fuzz targets (mirrors the corruption-matrix fixture without
// requiring a *testing.T).
func fuzzSeedTrace() *Trace {
	m := NewMeta([]ChannelInfo{
		{Name: "a", Width: 4, Dir: Input},
		{Name: "b", Width: 2, Dir: Output},
	}, true)
	tr := NewTrace(m)
	for i := 0; i < 20; i++ {
		b := tr.Append(false)
		if i%2 == 0 {
			b.Start(0, []byte{byte(i), 2, 3, 4})
		}
		if i%3 == 0 {
			b.End(1, []byte{5, byte(i)})
		}
	}
	return tr
}

// FuzzFrameDecode feeds arbitrary bytes to the storage-frame decoder
// (chunked into 64-byte frames exactly as the store would receive them).
// The decoder must never panic, and every failure must be a typed
// *CorruptError wrapping ErrCorrupt — the property the PR 1 corruption
// matrix checks pointwise, here extended to arbitrary inputs.
func FuzzFrameDecode(f *testing.F) {
	frames := fuzzSeedTrace().Frames()
	flat := make([]byte, 0, len(frames)*StoragePacketSize)
	for i := range frames {
		flat = append(flat, frames[i][:]...)
	}
	f.Add(flat)
	f.Add(flat[:len(flat)/2])         // truncated mid-stream
	f.Add(flat[:StoragePacketSize-7]) // partial final frame
	f.Add([]byte{})
	// Corruption-matrix style single-byte flips at representative offsets:
	// sequence number, used length, CRC field, payload.
	rng := rand.New(rand.NewSource(3))
	for _, off := range []int{0, 4, 6, frameHeaderSize, StoragePacketSize + 1} {
		c := append([]byte(nil), flat...)
		c[off] ^= byte(1 << rng.Intn(8))
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		n := (len(data) + StoragePacketSize - 1) / StoragePacketSize
		frames := make([][StoragePacketSize]byte, n)
		for i := 0; i < n; i++ {
			copy(frames[i][:], data[i*StoragePacketSize:])
		}
		tr, err := FromFrames(frames)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error is not typed ErrCorrupt: %v", err)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("decode error is not a *CorruptError: %v", err)
			}
			return
		}
		// A successfully decoded trace must be navigable without panicking.
		_ = tr.SizeBytes()
		_ = tr.TotalTransactions()
		_ = tr.Events()
		for ci := range tr.Meta.Channels {
			_ = tr.Transactions(ci)
		}
	})
}

// FuzzTraceRoundTrip checks encode/decode stability: any byte stream the
// decoder accepts must re-encode to exactly that stream, through both the
// plain codec and the storage framing. Without this property a recorded
// trace could silently change meaning across one store/load hop.
func FuzzTraceRoundTrip(f *testing.F) {
	valid := fuzzSeedTrace().Bytes()
	f.Add(valid)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		c := append([]byte(nil), valid...)
		c[rng.Intn(len(c))] ^= byte(1 << rng.Intn(8))
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := FromBytes(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error is not typed ErrCorrupt: %v", err)
			}
			return
		}
		enc := tr.Bytes()
		if !bytes.Equal(enc, data) {
			t.Fatal("a successful decode does not re-encode to its input")
		}
		// Storage-frame transport must be lossless for accepted traces.
		rt, err := FromFrames(tr.Frames())
		if err != nil {
			t.Fatalf("deframe of own framing failed: %v", err)
		}
		if !bytes.Equal(rt.Bytes(), enc) {
			t.Fatal("frame round trip altered the trace")
		}
	})
}
