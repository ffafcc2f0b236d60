package eval

import (
	"bytes"
	"testing"

	"vidi/internal/core"
	"vidi/internal/trace"
)

// TestReplayPacingInvariance is a direct check of transaction determinism:
// the replayed execution's boundary behaviour must not depend on how fast
// the trace can be fetched from storage. We replay the same reference with
// a starved decoder (3 B/cycle) and an effectively infinite one, and the
// two validation traces must be identical transaction-for-transaction.
func TestReplayPacingInvariance(t *testing.T) {
	rec, err := Run(RunConfig{App: "digitr", Scale: 1, Seed: 77, Cfg: R2})
	if err != nil {
		t.Fatal(err)
	}
	replay := func(bw int) *trace.Trace {
		res, err := Run(RunConfig{
			App: "digitr", Scale: 1, Seed: 77, Cfg: R3,
			ReplayTrace: rec.Trace, StoreBytesPerCycle: bw,
		})
		if err != nil {
			t.Fatalf("bw=%d: %v", bw, err)
		}
		return res.Trace
	}
	slow := replay(3)
	fast := replay(1 << 20)
	if slow.TotalTransactions() != fast.TotalTransactions() {
		t.Fatalf("transaction counts differ: %d vs %d", slow.TotalTransactions(), fast.TotalTransactions())
	}
	// Same per-channel contents and counts (timings may differ; behaviour
	// must not).
	for ci := range slow.Meta.Channels {
		st, ft := slow.Transactions(ci), fast.Transactions(ci)
		if len(st) != len(ft) {
			t.Fatalf("channel %s: %d vs %d transactions", slow.Meta.Channels[ci].Name, len(st), len(ft))
		}
		for k := range st {
			if !bytes.Equal(st[k].Content, ft[k].Content) {
				t.Fatalf("channel %s txn %d contents differ", slow.Meta.Channels[ci].Name, k)
			}
		}
	}
	// Both replays must also be divergence-free against the reference.
	for _, val := range []*trace.Trace{slow, fast} {
		rep, err := core.Compare(rec.Trace, val)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("pacing-dependent divergence:\n%s", rep)
		}
	}
}

// TestPrefixReplay replays only a prefix of a recorded execution — the
// "partial record/replay" direction the paper sketches for its StateLink
// synergy (§7). The replayers must recreate exactly the prefix's
// transactions and then quiesce.
func TestPrefixReplay(t *testing.T) {
	rec, err := Run(RunConfig{App: "bnn", Scale: 1, Seed: 31, Cfg: R2})
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := trace.FromBytes(rec.Trace.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Keep roughly the first half of the event-cycles, truncated to a
	// transaction-consistent point (no input left in flight).
	cut := prefix.Len() / 2
	for cut < prefix.Len() {
		core.DropTail(prefix, cut)
		if prefix.Validate() == nil {
			break
		}
		prefix, _ = trace.FromBytes(rec.Trace.Bytes())
		cut++
	}
	if cut >= rec.Trace.Len() {
		t.Fatal("no consistent prefix found")
	}

	b, err := Build(RunConfig{App: "bnn", Scale: 1, Seed: 31, Cfg: R3, ReplayTrace: prefix})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Sys.Sim.Run(5_000_000, b.Shim.ReplayDone); err != nil {
		t.Fatal(err)
	}
	// Replayed exactly the prefix's transactions.
	want := prefix.TotalTransactions()
	var got uint64
	for _, n := range b.Shim.Coordinator().Completions() {
		got += n
	}
	if got != want {
		t.Fatalf("prefix replay recreated %d transactions, want %d", got, want)
	}
}

// TestStoreAndForwardAppReplaysCleanly checks the conservative monitor on a
// full application: the SAF-recorded trace must replay divergence-free.
func TestStoreAndForwardAppReplaysCleanly(t *testing.T) {
	rec, err := Run(RunConfig{App: "bnn", Scale: 1, Seed: 13, Cfg: R2, StoreAndForward: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckErr != nil {
		t.Fatalf("SAF recording altered behaviour: %v", rec.CheckErr)
	}
	rep, err := Run(RunConfig{App: "bnn", Scale: 1, Seed: 13, Cfg: R3, ReplayTrace: rec.Trace})
	if err != nil {
		t.Fatal(err)
	}
	report, err := core.Compare(rec.Trace, rep.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("SAF trace diverged on replay:\n%s", report)
	}
}
