package bugs

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"vidi/internal/core"
	"vidi/internal/shell"
	"vidi/internal/sim"
	"vidi/internal/trace"
)

func TestFrameFIFOBugUnit(t *testing.T) {
	// 20 fragments into a 32-deep FIFO: frame 3 straddles the remaining
	// capacity.
	buggy := NewFrameFIFO(20, true)
	frame := make([]uint32, 16)
	for i := range frame {
		frame[i] = uint32(i)
	}
	if n := buggy.PushFrame(frame); n != 16 {
		t.Fatalf("first frame: accepted %d", n)
	}
	if n := buggy.PushFrame(frame); n != 16 {
		t.Fatalf("buggy FIFO claims full acceptance, got %d", n)
	}
	if len(buggy.Dropped) != 12 {
		t.Fatalf("expected 12 dropped fragments, got %d", len(buggy.Dropped))
	}

	fixed := NewFrameFIFO(20, false)
	fixed.PushFrame(frame)
	if n := fixed.PushFrame(frame); n != 4 {
		t.Fatalf("fixed FIFO should accept only what fits, got %d", n)
	}
	if len(fixed.Dropped) != 0 {
		t.Fatal("fixed FIFO must not drop")
	}
}

// runEcho builds and runs the echo server under the given shim config.
func runEcho(t *testing.T, app *EchoApp, cfg core.Options, seed int64, replayTrace *trace.Trace) (*shell.System, *core.Shim, error) {
	t.Helper()
	sys := shell.NewSystem(shell.Config{Replay: cfg.Mode == core.ModeReplay, Seed: seed, JitterMax: 4})
	app.Build(sys)
	cfg.ReplayTrace = replayTrace
	sh, err := core.NewShim(sys.Sim, sys.Boundary, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var done func() bool
	if cfg.Mode == core.ModeReplay {
		done = func() bool { return sh.ReplayDone() && app.Done() }
	} else {
		app.Program(sys.CPU)
		done = func() bool { return sys.CPU.Done() && app.Done() }
	}
	_, err = sys.Sim.Run(3_000_000, done)
	return sys, sh, err
}

func TestEchoPromptStartHasNoLoss(t *testing.T) {
	app := &EchoApp{Frames: 12}
	_, _, err := runEcho(t, app, core.Options{Mode: core.ModeOff}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(app.Received, app.Sent) {
		t.Fatal("prompt-start echo should round-trip all data")
	}
	if len(app.Loss()) != 0 {
		t.Fatalf("unexpected loss: %v", app.Loss())
	}
}

func TestEchoDelayedStartLosesDataAndReplayReproducesIt(t *testing.T) {
	// T2's start is delayed: the buggy FIFO silently drops fragments and
	// T1 observes data loss (§5.2 "Delayed Start").
	app := &EchoApp{Frames: 12, DelayStart: 400}
	_, sh, err := runEcho(t, app, core.Options{Mode: core.ModeRecord, ValidateOutputs: true}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(app.Received, app.Sent) {
		t.Fatal("expected data loss with delayed start")
	}
	loss := app.Loss()
	if len(loss) == 0 {
		t.Fatal("LossCheck should report dropped fragments")
	}
	ref := sh.Trace()

	// Replay the buggy execution: the same loss pattern must reproduce,
	// and LossCheck identifies the same dropped fragments.
	app2 := &EchoApp{Frames: 12, DelayStart: 400}
	_, sh2, err := runEcho(t, app2, core.Options{Mode: core.ModeReplay, Record: true, ValidateOutputs: true}, 5, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(app2.Loss(), loss) {
		t.Fatalf("replayed loss %v differs from recorded loss %v", app2.Loss(), loss)
	}
	report, err := core.Compare(ref, sh2.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("replay of the buggy execution diverged:\n%s", report)
	}
}

func TestEchoFixedFIFOSurvivesDelayedStart(t *testing.T) {
	app := &EchoApp{Frames: 12, DelayStart: 400, FixedFIFO: true}
	_, _, err := runEcho(t, app, core.Options{Mode: core.ModeOff}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(app.Received, app.Sent) {
		t.Fatal("fixed FIFO should back-pressure instead of dropping")
	}
}

func TestEchoUnalignedMaskBugReproduces(t *testing.T) {
	// The echo server ignores the DMA byte-enable mask, so masked-out
	// garbage bytes appear in the read-back (§5.2 "Unaligned DMA access").
	app := &EchoApp{Frames: 8, UnalignedGarbage: 12}
	_, sh, err := runEcho(t, app, core.Options{Mode: core.ModeRecord, ValidateOutputs: true}, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < app.UnalignedGarbage; i++ {
		if app.Received[i] != 0xEE {
			t.Fatalf("byte %d should be masked garbage, got %#x", i, app.Received[i])
		}
	}
	if !bytes.Equal(app.Received[app.UnalignedGarbage:], app.Sent[app.UnalignedGarbage:]) {
		t.Fatal("unmasked bytes should round-trip")
	}
	// Replay: the mask travels in the recorded W content, so the corrupted
	// read-back reproduces exactly.
	app2 := &EchoApp{Frames: 8, UnalignedGarbage: 12}
	_, sh2, err := runEcho(t, app2, core.Options{Mode: core.ModeReplay, Record: true, ValidateOutputs: true}, 6, sh.Trace())
	if err != nil {
		t.Fatal(err)
	}
	report, err := core.Compare(sh.Trace(), sh2.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("replay diverged:\n%s", report)
	}
}

// runPingPong mirrors runEcho for the §5.3 app.
func runPingPong(t *testing.T, app *PingPongApp, cfg core.Options, seed int64, replayTrace *trace.Trace, maxCycles uint64) (*shell.System, *core.Shim, error) {
	t.Helper()
	sys := shell.NewSystem(shell.Config{Replay: cfg.Mode == core.ModeReplay, Seed: seed, JitterMax: 4})
	sys.Sim.WatchdogWindow = 3000
	app.Build(sys)
	cfg.ReplayTrace = replayTrace
	sh, err := core.NewShim(sys.Sim, sys.Boundary, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var done func() bool
	if cfg.Mode == core.ModeReplay {
		done = func() bool { return sh.ReplayDone() && app.Done() }
	} else {
		app.Program(sys.CPU)
		done = func() bool { return sys.CPU.Done() && app.Done() }
	}
	_, err = sys.Sim.Run(maxCycles, done)
	return sys, sh, err
}

func TestPingPongRecordsAndVerifiesPongs(t *testing.T) {
	app := &PingPongApp{BuggyFilter: true, Pings: 6}
	sys, sh, err := runPingPong(t, app, core.Options{Mode: core.ModeRecord, ValidateOutputs: true}, 8, nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	got := sys.HostDRAM.Read(HostPongBase, len(app.Sent))
	if !bytes.Equal(got, app.Sent) {
		t.Fatal("pongs in host DRAM differ from pings")
	}
	if sh.Trace().TotalTransactions() == 0 {
		t.Fatal("nothing recorded")
	}
}

func TestMutatedTraceDeadlocksBuggyFilter(t *testing.T) {
	// §5.3: record a healthy trace, reorder the first write-data end before
	// the write-address end, replay — the buggy filter deadlocks; the
	// fixed filter does not.
	app := &PingPongApp{BuggyFilter: true, Pings: 6}
	_, sh, err := runPingPong(t, app, core.Options{Mode: core.ModeRecord, ValidateOutputs: true}, 8, nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	ref := sh.Trace()

	// Sanity: replaying the unmutated trace completes even with the bug
	// (the dangerous interleaving never occurs naturally).
	appOK := &PingPongApp{BuggyFilter: true, Pings: 6}
	if _, _, err := runPingPong(t, appOK, core.Options{Mode: core.ModeReplay}, 8, mustCopy(t, ref), 1_000_000); err != nil {
		t.Fatalf("unmutated replay should complete: %v", err)
	}

	mutated := mustCopy(t, ref)
	if err := core.MoveEndBefore(mutated, "pcim.W", 0, "pcim.AW", 0); err != nil {
		t.Fatal(err)
	}

	appBad := &PingPongApp{BuggyFilter: true, Pings: 6}
	_, _, err = runPingPong(t, appBad, core.Options{Mode: core.ModeReplay}, 8, mustCopy(t, mutated), 300_000)
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("expected deadlock with the buggy filter, got %v", err)
	}

	appFixed := &PingPongApp{BuggyFilter: false, Pings: 6}
	if _, _, err := runPingPong(t, appFixed, core.Options{Mode: core.ModeReplay}, 8, mustCopy(t, mutated), 1_000_000); err != nil {
		t.Fatalf("fixed filter should survive the mutated trace: %v", err)
	}
}

// mustCopy deep-copies a trace through its codec.
func mustCopy(t *testing.T, tr *trace.Trace) *trace.Trace {
	t.Helper()
	c, err := trace.FromBytes(tr.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return c
}
