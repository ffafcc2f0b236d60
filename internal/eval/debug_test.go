package eval

import (
	"fmt"
	"testing"
)

func TestDebugDMAReplay(t *testing.T) {
	rec, err := Run(RunConfig{App: "dma", Scale: 1, Seed: 42, Cfg: R2})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("record: cycles=%d txns=%d check=%v", rec.Cycles, rec.Trace.TotalTransactions(), rec.CheckErr)
	// Count recorded per-channel ends.
	counts := rec.Trace.EndCounts()
	for i, c := range rec.Trace.Meta.Channels {
		if counts[i] > 0 {
			t.Logf("rec ch %2d %-10s %-6s ends=%d", i, c.Name, c.Dir, counts[i])
		}
	}
	rep, err := Run(RunConfig{App: "dma", Scale: 1, Seed: 42, Cfg: R3, ReplayTrace: rec.Trace})
	if err != nil {
		t.Fatal(err)
	}
	vcounts := rep.Trace.EndCounts()
	for i, c := range rep.Trace.Meta.Channels {
		if vcounts[i] != counts[i] {
			t.Logf("rep ch %2d %-10s ends=%d (rec %d) MISMATCH", i, c.Name, vcounts[i], counts[i])
		}
	}
	// Did the replayed pcis writes land in card DRAM?
	sum := 0
	for _, b := range rep.Sys.CardDRAM.Read(0x10_0000, 2048) {
		sum += int(b)
	}
	t.Logf("replay: cycles=%d InBase checksum=%d", rep.Cycles, sum)
	sum = 0
	for _, b := range rep.Sys.CardDRAM.Read(0x20_0000, 2048) {
		sum += int(b)
	}
	t.Logf("replay: OutBase checksum=%d", sum)
	_ = fmt.Sprint
}
