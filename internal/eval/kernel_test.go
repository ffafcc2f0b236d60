package eval

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vidi/internal/apps"
)

// goldenRun executes one R2 recording of app under the chosen kernel,
// dumping the boundary VCD, and returns the trace bytes, the VCD bytes and
// the cycle count. check arms the dynamic sensitivity audit, so any Eval
// touching a signal outside its declaration fails the test.
func goldenRun(t *testing.T, app string, legacy, check bool) (traceBytes, vcdBytes []byte, cycles uint64) {
	t.Helper()
	vcd := filepath.Join(t.TempDir(), "dump.vcd")
	res, err := Run(RunConfig{
		App: app, Scale: 1, Seed: 7, Cfg: R2,
		LegacyKernel: legacy, VCDPath: vcd,
		SensitivityCheck: check,
	})
	if err != nil {
		t.Fatalf("%s (legacy=%v): %v", app, legacy, err)
	}
	if res.CheckErr != nil {
		t.Fatalf("%s (legacy=%v): golden check: %v", app, legacy, res.CheckErr)
	}
	dump, err := os.ReadFile(vcd)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace.Bytes(), dump, res.Cycles
}

// matchLegacy runs app's R2 recording on the legacy kernel and on the
// scheduler and fails unless trace, VCD and cycle count are identical.
func matchLegacy(t *testing.T, app string, check bool) {
	t.Helper()
	refTrace, refVCD, refCycles := goldenRun(t, app, true, false)
	gotTrace, gotVCD, gotCycles := goldenRun(t, app, false, check)
	if gotCycles != refCycles {
		t.Errorf("cycles: scheduler %d, legacy %d", gotCycles, refCycles)
	}
	if !bytes.Equal(gotTrace, refTrace) {
		t.Errorf("trace bytes differ (scheduler %d bytes, legacy %d bytes)",
			len(gotTrace), len(refTrace))
	}
	if !bytes.Equal(gotVCD, refVCD) {
		t.Errorf("VCD dumps differ (scheduler %d bytes, legacy %d bytes)",
			len(gotVCD), len(refVCD))
	}
}

// TestKernelGoldenDeterminism is the scheduler's end-to-end regression: for
// every evaluation application, an R2 recording under the sensitivity
// scheduler, with the sensitivity audit armed, must be byte-identical —
// trace and VCD waveform — to the same recording under the legacy fixpoint
// kernel, at the same cycle count.
func TestKernelGoldenDeterminism(t *testing.T) {
	for _, app := range apps.Names() {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			matchLegacy(t, app, true)
		})
	}
}

// TestKernelGoldenWorkerMatrix is the unaudited half of the golden matrix:
// the same legacy comparison with the scheduler running without the
// sensitivity probe, the configuration every production run uses. `make
// race-golden` runs both halves under the race detector.
func TestKernelGoldenWorkerMatrix(t *testing.T) {
	for _, app := range apps.Names() {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			matchLegacy(t, app, false)
		})
	}
}

// TestKernelGoldenReplay extends the golden check through a full
// record/replay cycle: the validation trace an R3 replay records must not
// depend on which kernel ran the replay.
func TestKernelGoldenReplay(t *testing.T) {
	rec, err := Run(RunConfig{App: "dma-irq", Scale: 1, Seed: 7, Cfg: R2, SensitivityCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	var val [][]byte
	for _, legacy := range []bool{true, false} {
		rep, err := Run(RunConfig{
			App: "dma-irq", Scale: 1, Seed: 7, Cfg: R3,
			ReplayTrace: rec.Trace, LegacyKernel: legacy,
			SensitivityCheck: true,
		})
		if err != nil {
			t.Fatalf("replay (legacy=%v): %v", legacy, err)
		}
		val = append(val, rep.Trace.Bytes())
	}
	if !bytes.Equal(val[0], val[1]) {
		t.Fatal("R3 validation traces differ between kernels")
	}
}

// TestKernelStatsReported checks that a scheduler run surfaces meaningful
// counters: the dirty-set must actually skip work relative to the legacy
// fixpoint.
func TestKernelStatsReported(t *testing.T) {
	res, err := Run(RunConfig{App: "dma-irq", Scale: 1, Seed: 7, Cfg: R2})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Cycles == 0 || st.EvalCalls == 0 || st.SettleWaves == 0 {
		t.Fatalf("empty stats: %v", st)
	}
	if st.SkippedEvals == 0 {
		t.Fatalf("scheduler skipped no evals: %v", st)
	}

	leg, err := Run(RunConfig{App: "dma-irq", Scale: 1, Seed: 7, Cfg: R2, LegacyKernel: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.EvalCalls >= leg.Stats.EvalCalls {
		t.Errorf("scheduler made %d eval calls, legacy %d — no work saved",
			st.EvalCalls, leg.Stats.EvalCalls)
	}
}
