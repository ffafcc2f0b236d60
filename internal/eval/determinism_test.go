package eval

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"vidi/internal/apps"
	"vidi/internal/telemetry"
)

// tripwireEnv arms the dual-run determinism tripwire; unset, the test
// skips so plain `go test ./...` stays fast. CI's race-golden target sets
// it.
const tripwireEnv = "VIDI_TRIPWIRE"

// tripwireRun executes one R2 recording of app under the given GOMAXPROCS
// (0 keeps the current setting), returning the trace bytes, the VCD dump
// and the telemetry snapshot as JSON.
func tripwireRun(t *testing.T, app string, gomax int) (traceBytes, vcdBytes, telemetryBytes []byte) {
	t.Helper()
	if gomax > 0 {
		prev := runtime.GOMAXPROCS(gomax)
		defer runtime.GOMAXPROCS(prev)
	}
	vcd := filepath.Join(t.TempDir(), "dump.vcd")
	sink := telemetry.New()
	res, err := Run(RunConfig{
		App: app, Scale: 1, Seed: 7, Cfg: R2,
		VCDPath: vcd, Telemetry: sink,
	})
	if err != nil {
		t.Fatalf("%s (gomax=%d): %v", app, gomax, err)
	}
	if res.CheckErr != nil {
		t.Fatalf("%s (gomax=%d): golden check: %v", app, gomax, res.CheckErr)
	}
	dump, err := os.ReadFile(vcd)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := sink.Gather().WriteJSON(&snap); err != nil {
		t.Fatalf("render snapshot: %v", err)
	}
	return res.Trace.Bytes(), dump, snap.Bytes()
}

// TestDeterminismTripwire is the dynamic complement of the detaudit
// analyzer: every golden application is executed once as a
// reference and again at GOMAXPROCS 1 and at the host's CPU count, and
// every run must produce byte-identical traces, VCD waveforms and telemetry
// snapshots, every family included. A hidden dependence on anything
// but the seed — a map-order leak into a trace frame, completion-order
// result merging — shows up here as a byte diff. Armed via VIDI_TRIPWIRE=1;
// CI runs it under -race in the race-golden job.
func TestDeterminismTripwire(t *testing.T) {
	if os.Getenv(tripwireEnv) == "" {
		t.Skipf("set %s=1 to arm the dual-run determinism tripwire", tripwireEnv)
	}
	for _, app := range apps.Names() {
		app := app
		t.Run(app, func(t *testing.T) {
			refTrace, refVCD, refTel := tripwireRun(t, app, 0)
			for _, gomax := range []int{1, runtime.NumCPU()} {
				gotTrace, gotVCD, gotTel := tripwireRun(t, app, gomax)
				if !bytes.Equal(gotTrace, refTrace) {
					t.Errorf("gomax=%d: trace bytes diverge from the reference (%d vs %d bytes)",
						gomax, len(gotTrace), len(refTrace))
				}
				if !bytes.Equal(gotVCD, refVCD) {
					t.Errorf("gomax=%d: VCD dump diverges from the reference", gomax)
				}
				if !bytes.Equal(gotTel, refTel) {
					t.Errorf("gomax=%d: telemetry snapshot diverges from the reference:\n%s",
						gomax, firstDiff(gotTel, refTel))
				}
			}
		})
	}
}

// firstDiff renders the first differing region of two byte slices, for
// actionable tripwire failures.
func firstDiff(got, want []byte) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			hi := i + 80
			if hi > n {
				hi = n
			}
			return fmt.Sprintf("first diff at byte %d:\n  got:  …%s…\n  want: …%s…", i, got[lo:hi], want[lo:hi])
		}
	}
	return fmt.Sprintf("length mismatch: got %d bytes, want %d", len(got), len(want))
}
