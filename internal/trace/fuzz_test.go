package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the trace decoder; it must never
// panic — every malformed input yields an error, and every input it accepts
// decodes to a navigable trace that re-encodes to exactly that input.
func FuzzDecode(f *testing.F) {
	// Seed with valid traces and near-valid corruptions.
	m := NewMeta([]ChannelInfo{
		{Name: "a", Width: 4, Dir: Input},
		{Name: "b", Width: 2, Dir: Output},
	}, true)
	tr := NewTrace(m)
	tr.Append(false).Start(0, []byte{1, 2, 3, 4}).End(0, nil).End(1, []byte{5, 6})
	valid := tr.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("VIDT"))
	f.Add([]byte{})

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		c := append([]byte(nil), valid...)
		c[rng.Intn(len(c))] ^= byte(1 << rng.Intn(8))
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := FromBytes(data)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Bytes(), data) {
			t.Fatal("a successful decode does not re-encode to its input")
		}
		// A successfully decoded trace must be internally navigable
		// without panicking.
		_ = got.SizeBytes()
		_ = got.TotalTransactions()
		_ = got.Events()
		_ = got.Summary()
		for ci := range got.Meta.Channels {
			_ = got.Transactions(ci)
		}
	})
}

// TestDecodeCorruptionMatrix flips every byte of a valid trace one at a
// time (deterministic, unlike the fuzzer's default run). The v2 format
// CRC-protects the entire file — header, packet count and every packet — so
// EVERY single-byte flip must surface as a typed *CorruptError wrapping
// ErrCorrupt. A successful decode of a flipped file would be a silent wrong
// decode, which the framing exists to rule out.
func TestDecodeCorruptionMatrix(t *testing.T) {
	tr := randTrace(t, 5, true, 30)
	valid := tr.Bytes()
	for i := range valid {
		c := append([]byte(nil), valid...)
		c[i] ^= 0xff
		_, err := FromBytes(c)
		if err == nil {
			t.Fatalf("flip of byte %d decoded without error (silent corruption)", i)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip of byte %d: error is not typed ErrCorrupt: %v", i, err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("flip of byte %d: error is not a *CorruptError: %v", i, err)
		}
	}
}

// TestFrameCorruptionMatrix does the same at the storage-frame layer: every
// single-byte flip of every frame must be caught by the per-frame CRC.
func TestFrameCorruptionMatrix(t *testing.T) {
	tr := randTrace(t, 7, true, 12)
	frames := tr.Frames()
	if len(frames) < 2 {
		t.Fatalf("want a multi-frame trace, got %d frames", len(frames))
	}
	// Subsample frames to keep the matrix fast; every byte of the chosen
	// frames is flipped.
	for fi := 0; fi < len(frames); fi += 1 + len(frames)/8 {
		for bi := 0; bi < StoragePacketSize; bi++ {
			c := make([][StoragePacketSize]byte, len(frames))
			copy(c, frames)
			c[fi][bi] ^= 0x40
			if _, err := FromFrames(c); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("frame %d byte %d flip: want ErrCorrupt, got %v", fi, bi, err)
			}
		}
	}
}

// TestFrameLossAndReorder checks the sequence-number side of the framing:
// dropping or swapping whole (CRC-intact) frames is detected.
func TestFrameLossAndReorder(t *testing.T) {
	tr := randTrace(t, 9, true, 12)
	frames := tr.Frames()
	if len(frames) < 3 {
		t.Fatalf("want >=3 frames, got %d", len(frames))
	}
	// Round-trips cleanly when untouched.
	rt, err := FromFrames(frames)
	if err != nil {
		t.Fatalf("clean deframe: %v", err)
	}
	if !bytes.Equal(rt.Bytes(), tr.Bytes()) {
		t.Fatalf("frame round trip altered the trace")
	}
	// Mid-stream loss.
	lost := append(append([][StoragePacketSize]byte{}, frames[:1]...), frames[2:]...)
	if _, err := FromFrames(lost); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dropped frame: want ErrCorrupt, got %v", err)
	}
	// Reorder.
	swapped := make([][StoragePacketSize]byte, len(frames))
	copy(swapped, frames)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := FromFrames(swapped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reordered frames: want ErrCorrupt, got %v", err)
	}
}
