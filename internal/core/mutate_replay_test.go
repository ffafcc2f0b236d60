package core

import (
	"strings"
	"testing"

	"vidi/internal/trace"
)

// TestMutatedInputOrderChangesReplayedBehaviour closes the loop on the
// testing use case for *input* channels: moving an input transaction's end
// (and, transitively, its start) ahead of another channel's end must make
// the replayed application observe — and act on — the mutated order.
func TestMutatedInputOrderChangesReplayedBehaviour(t *testing.T) {
	_, ref, opsRec, _ := runRecorded(t, 8, Options{Mode: ModeRecord, ValidateOutputs: true}, 12)

	// Find an adjacent add-end → xor-end pair in the recorded order and
	// swap it.
	ai := ref.Meta.ChannelByName("add")
	xi := ref.Meta.ChannelByName("xor")
	var addOrd, xorOrd uint64
	found := false
	ends := ref.EndEvents()
	for i := 0; i+1 < len(ends); i++ {
		if ends[i].Channel == ai && ends[i+1].Channel == xi && ends[i].Packet != ends[i+1].Packet {
			addOrd, xorOrd = ends[i].Ordinal, ends[i+1].Ordinal
			found = true
			break
		}
	}
	if !found {
		t.Skip("no strictly-ordered add→xor pair in this recording")
	}

	mutated, err := trace.FromBytes(ref.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := MoveEndBefore(mutated, "xor", xorOrd, "add", addOrd); err != nil {
		t.Fatal(err)
	}

	_, _, opsRep := runReplay(t, mutated, false)
	if len(opsRep) != len(opsRec) {
		t.Fatalf("mutated replay op count %d, recorded %d", len(opsRep), len(opsRec))
	}
	same := true
	for i := range opsRec {
		if opsRec[i] != opsRep[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("mutated trace replayed with the original operation order")
	}
	// The multiset of operations is unchanged — only the order moved.
	count := func(ops []string, k string) int {
		n := 0
		for _, o := range ops {
			if o == k {
				n++
			}
		}
		return n
	}
	if count(opsRec, "add") != count(opsRep, "add") || count(opsRec, "xor") != count(opsRep, "xor") {
		t.Fatal("mutation changed the operation multiset")
	}
}

// TestSwapEndsIsOrderInsensitive verifies SwapEnds handles both argument
// orders.
func TestSwapEndsIsOrderInsensitive(t *testing.T) {
	_, ref, _, _ := runRecorded(t, 3, Options{Mode: ModeRecord, ValidateOutputs: true}, 8)
	a, err := trace.FromBytes(ref.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.FromBytes(ref.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := SwapEnds(a, "add", 1, "xor", 5); err != nil {
		t.Fatal(err)
	}
	if err := SwapEnds(b, "xor", 5, "add", 1); err != nil {
		t.Fatal(err)
	}
	if a.TotalTransactions() != b.TotalTransactions() {
		t.Fatal("swap results differ")
	}
}

func TestDropTail(t *testing.T) {
	_, ref, _, _ := runRecorded(t, 3, Options{Mode: ModeRecord, ValidateOutputs: true}, 8)
	n := ref.Len()
	DropTail(ref, n+10) // no-op beyond length
	if ref.Len() != n {
		t.Fatal("overlong DropTail truncated")
	}
	DropTail(ref, 3)
	if ref.Len() != 3 {
		t.Fatalf("DropTail left %d packets", ref.Len())
	}
}

func TestDivergenceReportFormatting(t *testing.T) {
	d := Divergence{
		Kind: ContentDivergence, Channel: 2, Name: "out", Ordinal: 7,
		Reference: []byte{1, 2}, Validation: []byte{3, 4},
		Context: [][]byte{{9}, {8}},
	}
	s := d.Format()
	for _, want := range []string{"content divergence", "out", "#7", "0102", "0304", "context"} {
		if !strings.Contains(s, want) {
			t.Fatalf("format missing %q in %q", want, s)
		}
	}
	c := Divergence{Kind: CountDivergence, Channel: 1, Name: "b", RefCount: 5, ValCount: 4}
	if !strings.Contains(c.Format(), "5 transactions recorded, 4 replayed") {
		t.Fatalf("count format: %q", c.Format())
	}
	o := Divergence{Kind: OrderDivergence, Channel: 0, Name: "a", Ordinal: 2}
	if !strings.Contains(o.Format(), "replayed before a recorded predecessor") {
		t.Fatalf("order format: %q", o.Format())
	}
	empty := &Report{RefTransactions: 10}
	if !strings.Contains(empty.String(), "no divergences in 10 transactions") {
		t.Fatalf("clean report: %q", empty.String())
	}
}
