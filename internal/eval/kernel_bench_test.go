package eval

import (
	"encoding/json"
	"os"
	"testing"
)

// TestKernelBenchRow runs the bench machinery itself on one short app: the
// row is built twice and must come out identical, the R3 half must be
// present, and the scheduler must make fewer Eval calls than the legacy
// fixpoint in both halves.
func TestKernelBenchRow(t *testing.T) {
	var rows []KernelBenchRow
	for i := 0; i < 2; i++ {
		got, stats, snap, err := KernelBench([]string{"dma-irq"}, 1, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || snap == nil || len(snap.Families) == 0 {
			t.Fatalf("rows=%d snap=%v", len(got), snap)
		}
		if stats["dma-irq"].Sink == nil {
			t.Fatal("no scheduler R2 sink for dma-irq")
		}
		rows = append(rows, got[0])
	}
	if rows[0] != rows[1] {
		t.Fatalf("row differs between builds:\n  %+v\n  %+v", rows[0], rows[1])
	}
	r := rows[0]
	if r.R3.Cycles == 0 {
		t.Fatalf("no R3 half: %+v", r)
	}
	for cfg, c := range map[string]KernelCounters{"R2": r.R2, "R3": r.R3} {
		if c.LegacyEvals <= c.SchedEvals {
			t.Errorf("%s: legacy evals %d do not exceed scheduler evals %d", cfg, c.LegacyEvals, c.SchedEvals)
		}
	}
}

// TestKernelBenchCommitted rebuilds the committed BENCH_kernel.json rows of
// the short apps and requires exact equality, so a counter that moves
// without the file being regenerated fails plain `go test` as well as
// `make bench`.
func TestKernelBenchCommitted(t *testing.T) {
	buf, err := os.ReadFile("../../BENCH_kernel.json")
	if err != nil {
		t.Fatal(err)
	}
	var f kernelBenchFile
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]KernelBenchRow, len(f.Rows))
	for _, r := range f.Rows {
		want[r.App] = r
	}
	short := []string{"dma", "dma-irq", "stress"}
	rows, _, _, err := KernelBench(short, f.Scale, f.Seed, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if w, ok := want[r.App]; !ok || r != w {
			t.Errorf("%s: counters %+v, committed %+v; regenerate with `make bench` and explain the move",
				r.App, r, w)
		}
	}
}
