package trace

import (
	"bytes"
	"testing"
)

// lossyTrace builds a trace whose middle packet is a degraded-mode gap: the
// output end keeps its event bit but sheds its content.
func lossyTrace(t *testing.T) *Trace {
	t.Helper()
	m := testMeta(true)
	tr := NewTrace(m)

	tr.Append(false).
		Start(0, []byte{1, 2, 3, 4}).          // ocl.AW start
		End(3, []byte{9, 9, 9, 9, 9, 9, 9, 9}) // pcim.AW end (output, recorded)

	tr.Append(true).
		Start(1, []byte{5, 6, 7, 8}).          // ocl.W start: input content kept even in a gap
		End(0, nil).                           // ocl.AW end
		End(3, []byte{9, 9, 9, 9, 9, 9, 9, 9}) // pcim.AW end (output, content shed)

	tr.Append(false).
		End(1, nil).      // ocl.W end
		End(2, []byte{7}) // ocl.B end (output, recorded again)

	if err := tr.Validate(); err != nil {
		t.Fatalf("lossy trace invalid: %v", err)
	}
	return tr
}

// TestLossyRoundTrip checks that gap markers and the shed contents survive
// serialization exactly.
func TestLossyRoundTrip(t *testing.T) {
	tr := lossyTrace(t)
	rt, err := FromBytes(tr.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got := rt.LossyPackets(); got != 1 {
		t.Fatalf("LossyPackets = %d, want 1", got)
	}
	if !rt.Packet(1).Lossy || rt.Packet(0).Lossy || rt.Packet(2).Lossy {
		t.Fatalf("lossy flags misplaced after round trip: %v %v %v",
			rt.Packet(0).Lossy, rt.Packet(1).Lossy, rt.Packet(2).Lossy)
	}
	if !bytes.Equal(rt.Bytes(), tr.Bytes()) {
		t.Fatalf("round trip not byte-identical")
	}
}

// TestLossyAccounting checks the gap statistics and the event view: lossy
// output ends surface with nil content, everything else keeps its data.
func TestLossyAccounting(t *testing.T) {
	tr := lossyTrace(t)
	// Two output ends inside the gap? p1 has one output end (pcim.AW);
	// ocl.AW is an input end, which never carries content.
	if got := tr.UnrecordedTransactions(); got != 1 {
		t.Fatalf("UnrecordedTransactions = %d, want 1", got)
	}
	txns := tr.Transactions(3) // pcim.AW
	if len(txns) != 2 {
		t.Fatalf("pcim.AW transactions = %d, want 2", len(txns))
	}
	if txns[0].Content == nil {
		t.Fatalf("recorded output end lost its content")
	}
	if txns[1].Content != nil {
		t.Fatalf("gap output end should have nil content, got %x", txns[1].Content)
	}
	// Input content inside the gap is preserved: replay needs it.
	w := tr.Transactions(1) // ocl.W
	if len(w) != 1 || !bytes.Equal(w[0].Content, []byte{5, 6, 7, 8}) {
		t.Fatalf("gap input content not preserved: %+v", w)
	}
}

// TestLossyCopy checks the gap marker survives copying a trace packet by
// packet through the view and the builder, and that the builder sheds the
// output content of a lossy packet just as the encoder does.
func TestLossyCopy(t *testing.T) {
	tr := lossyTrace(t)
	c := NewTrace(tr.Meta)
	for i := 0; i < tr.Len(); i++ {
		p := tr.Packet(i)
		b := c.Append(p.Lossy)
		for ci := range tr.Meta.Channels {
			cp := p.Channel(ci)
			if cp.Start {
				b.Start(ci, cp.Content)
			}
			if cp.End {
				b.End(ci, cp.Content)
			}
		}
	}
	if !c.Packet(1).Lossy || c.LossyPackets() != 1 {
		t.Fatalf("copy dropped the Lossy flag")
	}
	if !bytes.Equal(c.Bytes(), tr.Bytes()) {
		t.Fatalf("copy differs from the original")
	}
}
