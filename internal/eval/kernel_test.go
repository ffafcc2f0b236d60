package eval

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vidi/internal/apps"
	"vidi/internal/telemetry"
)

// goldenRun executes rc under the chosen kernel, dumping the boundary VCD,
// and returns the trace bytes (R3: the validation trace), the VCD bytes, the
// cycle count and, for a replay, the snapshot of a metrics sink armed for the
// run. check arms the dynamic sensitivity audit, so any Eval touching a
// signal outside its declaration fails the test.
func goldenRun(t *testing.T, rc RunConfig, legacy, check bool) (traceBytes, vcdBytes []byte, cycles uint64, snap *telemetry.Snapshot) {
	t.Helper()
	rc.VCDPath = filepath.Join(t.TempDir(), "dump.vcd")
	rc.LegacyKernel, rc.SensitivityCheck = legacy, check
	if rc.ReplayTrace != nil {
		rc.Telemetry = telemetry.New()
	}
	res, err := Run(rc)
	if err != nil {
		t.Fatalf("%s/%s (legacy=%v): %v", rc.App, rc.Cfg, legacy, err)
	}
	if res.CheckErr != nil {
		t.Fatalf("%s/%s (legacy=%v): golden check: %v", rc.App, rc.Cfg, legacy, res.CheckErr)
	}
	dump, err := os.ReadFile(rc.VCDPath)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Telemetry != nil {
		snap = rc.Telemetry.Gather()
	}
	return res.Trace.Bytes(), dump, res.Cycles, snap
}

// matchLegacy runs rc on the legacy kernel and on the scheduler and fails
// unless trace, VCD and cycle count are identical. For a replay it also
// requires identical replay telemetry: the legacy kernel never batches, so
// its per-channel gate stalls and fetch stalls are the per-cycle reference
// for the counts batched cycles fold in.
func matchLegacy(t *testing.T, rc RunConfig, check bool) {
	t.Helper()
	refTrace, refVCD, refCycles, refSnap := goldenRun(t, rc, true, false)
	gotTrace, gotVCD, gotCycles, gotSnap := goldenRun(t, rc, false, check)
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
	if rc.ReplayTrace == nil {
		return
	}
	replayFamilies := func(snap *telemetry.Snapshot) []telemetry.FamilySnap {
		var fs []telemetry.FamilySnap
		for _, f := range snap.Families {
			if strings.HasPrefix(f.Name, "vidi_replay_") {
				fs = append(fs, f)
			}
		}
		return fs
	}
	ref, got := replayFamilies(refSnap), replayFamilies(gotSnap)
	if len(ref) == 0 {
		t.Error("legacy replay reported no vidi_replay_* telemetry")
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("replay telemetry differs:\n  scheduler %+v\n  legacy    %+v", got, ref)
	}
}

// goldenR2 is the R2 recording every golden comparison starts from.
func goldenR2(app string) RunConfig {
	return RunConfig{App: app, Scale: 1, Seed: 7, Cfg: R2}
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
			matchLegacy(t, goldenR2(app), true)
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
			matchLegacy(t, goldenR2(app), false)
		})
	}
}

// TestKernelGoldenReplay extends the golden check through a full
// record/replay cycle: for every evaluation application, the R3 replay of
// an R2 recording must produce the same validation trace, VCD waveform and
// cycle count under the scheduler, sensitivity audit armed, as under the
// legacy fixpoint kernel.
func TestKernelGoldenReplay(t *testing.T) {
	for _, app := range apps.Names() {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			rec, err := Run(goldenR2(app))
			if err != nil {
				t.Fatal(err)
			}
			if rec.CheckErr != nil {
				t.Fatalf("recording: golden check: %v", rec.CheckErr)
			}
			rc := goldenR2(app)
			rc.Cfg, rc.ReplayTrace = R3, rec.Trace
			matchLegacy(t, rc, true)
		})
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
