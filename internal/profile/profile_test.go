package profile

import (
	"strings"
	"testing"

	"vidi/internal/eval"
	"vidi/internal/trace"
)

func syntheticTrace(t *testing.T) *trace.Trace {
	t.Helper()
	m := trace.NewMeta([]trace.ChannelInfo{
		{Name: "a", Width: 4, Dir: trace.Input},
		{Name: "b", Width: 8, Dir: trace.Output},
	}, false)
	tr := trace.NewTrace(m)
	// a starts at pkt0, a ends + b ends at pkt2; a starts/ends at pkt3;
	// b ends at pkt5.
	tr.Append(false).Start(0, []byte{1, 0, 0, 0})
	tr.Append(false) // would be empty; keep structure realistic
	tr.Append(false).End(0, nil).End(1, nil)
	tr.Append(false).Start(0, []byte{2, 0, 0, 0}).End(0, nil)
	tr.Append(false)
	tr.Append(false).End(1, nil)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAnalyzeSynthetic(t *testing.T) {
	p := Analyze(syntheticTrace(t))
	if p.TotalTransactions != 4 {
		t.Fatalf("transactions %d, want 4", p.TotalTransactions)
	}
	a, b := p.Channels[0], p.Channels[1]
	if a.Transactions != 2 || b.Transactions != 2 {
		t.Fatalf("per-channel counts %d/%d", a.Transactions, b.Transactions)
	}
	if a.Bytes != 8 || b.Bytes != 16 {
		t.Fatalf("bytes %d/%d", a.Bytes, b.Bytes)
	}
	// a's latencies: pkt0→pkt2 (2) and pkt3→pkt3 (0).
	if a.Latency.Count != 2 || a.Latency.Min != 0 || a.Latency.Max != 2 {
		t.Fatalf("a latency %+v", a.Latency)
	}
	// a's inter-end gap: pkt2→pkt3 = 1.
	if a.InterEnd.Count != 1 || a.InterEnd.Min != 1 {
		t.Fatalf("a inter-end %+v", a.InterEnd)
	}
	// Busiest pair: a and b end together at pkt2.
	if p.BusiestPair != [2]string{"a", "b"} || p.BusiestPairCount != 1 {
		t.Fatalf("busiest pair %+v x%d", p.BusiestPair, p.BusiestPairCount)
	}
	if p.Concurrency <= 0 {
		t.Fatal("concurrency missing")
	}
}

func TestTopTalkers(t *testing.T) {
	p := Analyze(syntheticTrace(t))
	top := p.TopTalkers(1)
	if len(top) != 1 || top[0].Name != "b" {
		t.Fatalf("top talker %+v", top)
	}
	if got := p.TopTalkers(10); len(got) != 2 {
		t.Fatalf("clamped top talkers %d", len(got))
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	if h := histogram(nil); h.Count != 0 || h.String() != "n=0" {
		t.Fatalf("empty histogram %+v", h)
	}
	h := histogram([]int{5})
	if h.Min != 5 || h.Max != 5 || h.P50 != 5 || h.Mean != 5 {
		t.Fatalf("singleton histogram %+v", h)
	}
}

func TestProfileOnRealRecording(t *testing.T) {
	res, err := eval.Run(eval.RunConfig{App: "digitr", Scale: 1, Seed: 6, Cfg: eval.R2})
	if err != nil {
		t.Fatal(err)
	}
	p := Analyze(res.Trace)
	if p.TotalTransactions != res.Trace.TotalTransactions() {
		t.Fatal("transaction accounting disagrees with the trace")
	}
	top := p.TopTalkers(1)
	if top[0].Name != "pcis.W" {
		t.Fatalf("digitr's dominant traffic should be pcis.W, got %s", top[0].Name)
	}
	out := p.String()
	for _, want := range []string{"trace profile:", "pcis.W", "latency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	t.Logf("\n%s", out)
}
