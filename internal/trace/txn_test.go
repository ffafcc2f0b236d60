package trace

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// referenceTransactions reconstructs channel ch's transactions the
// straightforward way: it decomposes every packet afresh into the channel's
// own channel packet, sharing no state across packets or channels.
func referenceTransactions(tr *Trace, ch int) []Txn {
	var out []Txn
	open := false
	for pi := 0; pi < tr.Len(); pi++ {
		cp := tr.Packet(pi).Channel(ch)
		if cp.Start {
			out = append(out, Txn{Channel: ch, Ordinal: uint64(len(out)), StartPacket: pi, EndPacket: -1, Content: cp.Content})
			open = true
		}
		if cp.End {
			if open {
				out[len(out)-1].EndPacket = pi
				open = false
			} else {
				out = append(out, Txn{Channel: ch, Ordinal: uint64(len(out)), StartPacket: -1, EndPacket: pi, Content: cp.Content})
			}
		}
	}
	return out
}

// checkIndex fails unless AllTransactions, and Transactions per channel,
// equal the reference reconstruction of every channel.
func checkIndex(t *testing.T, tr *Trace) {
	t.Helper()
	all := tr.AllTransactions()
	if len(all) != tr.Meta.NumChannels() {
		t.Fatalf("index covers %d channels, trace has %d", len(all), tr.Meta.NumChannels())
	}
	for ci := range all {
		want := referenceTransactions(tr, ci)
		for _, got := range [][]Txn{all[ci], tr.Transactions(ci)} {
			if len(got) != len(want) {
				t.Fatalf("channel %d: %d transactions, reference has %d", ci, len(got), len(want))
			}
			for k := range want {
				if !reflect.DeepEqual(got[k], want[k]) {
					t.Fatalf("channel %d transaction %d: got %+v, reference %+v", ci, k, got[k], want[k])
				}
			}
		}
	}
}

// TestAllTransactionsLossyAfterValidated: a gap packet's output end follows
// a recorded end on the same channel, and must come out without content
// rather than with the previous packet's.
func TestAllTransactionsLossyAfterValidated(t *testing.T) {
	tr := lossyTrace(t)
	checkIndex(t, tr)
	if got := tr.AllTransactions()[3]; len(got) != 2 || got[0].Content == nil || got[1].Content != nil {
		t.Fatalf("pcim.AW transactions %+v: want recorded content, then nil", got)
	}
}

// TestAllTransactionsOpenAtEnd: an input transaction started but not yet
// completed when the trace ends keeps EndPacket -1.
func TestAllTransactionsOpenAtEnd(t *testing.T) {
	m := testMeta(true)
	tr := NewTrace(m)
	tr.Append(false).Start(0, []byte{1, 1, 1, 1}).Start(1, []byte{2, 2, 2, 2})
	tr.Append(false).End(1, nil).End(2, []byte{3})
	checkIndex(t, tr)
	if got := tr.AllTransactions()[0]; len(got) != 1 || got[0].StartPacket != 0 || got[0].EndPacket != -1 {
		t.Fatalf("ocl.AW transactions %+v: want one open transaction", got)
	}
}

// TestAllTransactionsOutputOnly covers a trace with no input channels.
func TestAllTransactionsOutputOnly(t *testing.T) {
	m := NewMeta([]ChannelInfo{
		{Name: "a", Width: 1, Dir: Output},
		{Name: "b", Width: 2, Dir: Output},
	}, true)
	tr := NewTrace(m)
	for i := 0; i < 4; i++ {
		b := tr.Append(false)
		if i == 3 {
			b.End(1, []byte{8, 8}).End(0, []byte{9})
		} else {
			b.End(i%2, make([]byte, 1+i%2))
		}
	}
	checkIndex(t, tr)
}

// TestAllTransactionsMatchesReference checks random traces, including ones
// Validate would reject: starts while in flight and ends with no start.
func TestAllTransactionsMatchesReference(t *testing.T) {
	f := func(seed int64, validate bool) bool {
		r := rand.New(rand.NewSource(seed))
		m := testMeta(validate)
		tr := NewTrace(m)
		content := func(ci int) []byte {
			c := make([]byte, m.Channels[ci].Width)
			c[0] = byte(ci)
			c[len(c)-1] ^= byte(r.Intn(256))
			return c
		}
		for i := r.Intn(40); i > 0; i-- {
			b := tr.Append(r.Intn(4) == 0)
			for _, ci := range m.InputChannels() {
				if r.Intn(3) == 0 {
					b.Start(ci, content(ci))
				}
			}
			for ci := range m.Channels {
				if r.Intn(3) == 0 {
					b.End(ci, content(ci))
				}
			}
		}
		checkIndex(t, tr)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
