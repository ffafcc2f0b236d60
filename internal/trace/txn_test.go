package trace

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// referenceTransactions reconstructs channel ch's transactions the
// straightforward way: it decodes every packet afresh, sharing no state
// across packets or channels.
func referenceTransactions(tr *Trace, ch int) []Txn {
	m := tr.Meta
	var out []Txn
	open := false
	for pi, p := range tr.Packets {
		var start, end []byte
		started := false
		k := 0
		for ii, ci := range m.InputChannels() {
			if p.Starts.Get(ii) {
				if ci == ch {
					start, started = p.Contents[k], true
				}
				k++
			}
		}
		if m.ValidateOutputs && !p.Lossy {
			for _, ci := range m.OutputChannels() {
				if p.Ends.Get(ci) {
					if ci == ch {
						end = p.Contents[k]
					}
					k++
				}
			}
		}
		if started {
			out = append(out, Txn{Channel: ch, Ordinal: uint64(len(out)), StartPacket: pi, EndPacket: -1, Content: start})
			open = true
		}
		if p.Ends.Get(ch) {
			if open {
				out[len(out)-1].EndPacket = pi
				open = false
			} else {
				out = append(out, Txn{Channel: ch, Ordinal: uint64(len(out)), StartPacket: -1, EndPacket: pi, Content: end})
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
	p0 := NewCyclePacket(m)
	p0.Starts.Set(0)
	p0.Starts.Set(1)
	p0.Contents = [][]byte{{1, 1, 1, 1}, {2, 2, 2, 2}}
	tr.Append(p0)
	p1 := NewCyclePacket(m)
	p1.Ends.Set(1)
	p1.Ends.Set(2)
	p1.Contents = [][]byte{{3}}
	tr.Append(p1)
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
		p := NewCyclePacket(m)
		p.Ends.Set(i % 2)
		p.Contents = [][]byte{make([]byte, 1+i%2)}
		if i == 3 {
			p.Ends.Set(0)
			p.Contents = [][]byte{{9}, {8, 8}}
		}
		tr.Append(p)
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
		for i := r.Intn(40); i > 0; i-- {
			p := NewCyclePacket(m)
			p.Lossy = r.Intn(4) == 0
			for ii, ci := range m.InputChannels() {
				if r.Intn(3) == 0 {
					p.Starts.Set(ii)
					p.Contents = append(p.Contents, []byte{byte(ci), byte(r.Intn(256))})
				}
			}
			for ci := range m.Channels {
				if r.Intn(3) == 0 {
					p.Ends.Set(ci)
					if validate && !p.Lossy && m.Channels[ci].Dir == Output {
						p.Contents = append(p.Contents, []byte{byte(ci), byte(r.Intn(256))})
					}
				}
			}
			tr.Append(p)
		}
		checkIndex(t, tr)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
