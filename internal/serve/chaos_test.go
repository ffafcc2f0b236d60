package serve

import (
	"testing"
)

// TestChaosMatrix runs the full service fault matrix against live servers
// on a shared store root — the PR's headline acceptance check: every
// scenario commits (or degrades honestly), every replayable run replays
// cleanly with exact gap accounting, the final cold audit finds zero
// corrupted manifests, and the kill-restart drill quarantines every torn
// artifact. Under -short only the cheapest representative scenarios run.
func TestChaosMatrix(t *testing.T) {
	opts := ChaosOptions{
		Root:  t.TempDir(),
		Scale: 1,
		Seed:  42,
		Log:   t.Logf,
	}
	if testing.Short() {
		all := DefaultChaosScenarios()
		keep := map[string]bool{
			"baseline-dma-irq":        true,
			"wire-bitflip-dma-irq":    true,
			"wire-outage-gap-dma-irq": true,
			"kill-restart-dma-irq":    true,
		}
		for _, sc := range all {
			if keep[sc.Name] {
				opts.Scenarios = append(opts.Scenarios, sc)
			}
		}
		if len(opts.Scenarios) != len(keep) {
			t.Fatalf("short-mode scenario subset out of sync with DefaultChaosScenarios: got %d, want %d",
				len(opts.Scenarios), len(keep))
		}
	}

	report, err := RunChaosMatrix(opts)
	if err != nil {
		t.Fatalf("chaos matrix: %v", err)
	}
	t.Logf("\n%s", report.String())
	for _, f := range report.Failures() {
		t.Errorf("chaos invariant violated: %s", f)
	}

	want := len(DefaultChaosScenarios())
	if testing.Short() {
		want = len(opts.Scenarios)
	}
	if len(report.Results) != want {
		t.Fatalf("matrix ran %d scenarios, expected %d", len(report.Results), want)
	}
	if !testing.Short() && want < 10 {
		t.Fatalf("default matrix has %d scenarios, the acceptance floor is 10", want)
	}
	if report.FinalRecovery == nil {
		t.Fatal("matrix did not run the final cold-store audit")
	}
	// The kill-restart drill must actually have quarantined its planted
	// torn record and resumed via dedup — not vacuously passed.
	for _, res := range report.Results {
		if res.Kind == ChaosKillRestart {
			if res.Quarantined != 1 || res.Deduped == 0 {
				t.Errorf("kill-restart: %d quarantined, %d deduped — recovery drill did not exercise the crash path", res.Quarantined, res.Deduped)
			}
		}
		if res.Kind == ChaosDegradedRecording && !testing.Short() {
			if !res.Committed || res.Unrecorded == 0 {
				t.Errorf("degraded-recording scenario recorded no gaps (unrecorded=%d); the lossy path was not exercised", res.Unrecorded)
			}
		}
	}
}
