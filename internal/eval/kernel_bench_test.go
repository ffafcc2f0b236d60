package eval

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestKernelBaselineGate exercises the CI bench regression gate on synthetic
// rows: a speedup within tolerance (or an app new to the baseline) passes, a
// drop beyond it fails and names the app.
func TestKernelBaselineGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	base := []KernelBenchRow{
		{App: "alpha", Speedup: 10},
		{App: "beta", Speedup: 2},
	}
	if err := WriteKernelBenchJSON(path, 1, 2, 7, base); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadKernelBenchJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 || loaded["alpha"].Speedup != 10 {
		t.Fatalf("round-trip: %+v", loaded)
	}

	ok := []KernelBenchRow{
		{App: "alpha", Speedup: 9.5}, // within 10%
		{App: "beta", Speedup: 4},    // improved
		{App: "gamma", Speedup: 1},   // new app, no baseline
	}
	if err := CheckKernelBaseline(loaded, ok, 10); err != nil {
		t.Fatalf("tolerable rows rejected: %v", err)
	}

	bad := []KernelBenchRow{
		{App: "alpha", Speedup: 8.5}, // 15% below
		{App: "beta", Speedup: 2},
	}
	err = CheckKernelBaseline(loaded, bad, 10)
	if err == nil {
		t.Fatal("regressed row passed the gate")
	}
	if !strings.Contains(err.Error(), "alpha") || strings.Contains(err.Error(), "beta") {
		t.Fatalf("gate error should name only the regressed app: %v", err)
	}
}

// TestKernelBenchRow runs the bench machinery itself on one short app: the
// row must carry the throughput figures and the scheduler counters the
// table prints.
func TestKernelBenchRow(t *testing.T) {
	rows, stats, snap, err := KernelBench([]string{"dma-irq"}, 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || snap == nil {
		t.Fatalf("rows=%d snap=%v", len(rows), snap)
	}
	r := rows[0]
	if r.SchedCPS <= 0 || r.LegacyCPS <= 0 || r.Speedup <= 0 {
		t.Fatalf("throughput figures: %+v", r)
	}
	if _, ok := stats[r.App]; !ok {
		t.Fatalf("no raw stats for %s", r.App)
	}
}
