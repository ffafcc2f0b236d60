package sim

import (
	"reflect"
	"testing"

	"vidi/internal/telemetry"
)

// wakePattern is the value the cross-module signal takes in each cycle's
// settle. The last two entries are equal so the tick-path writer's final
// write (for a cycle that never settles) changes nothing.
var wakePattern = []bool{false, true, true, false, true, false, false, false, true, true, true, false, true, true}

// wakeWriter owns the cross-module signal. In "settle" mode its Eval
// drives pattern[cycle]; in "tick" mode its Tick drives the next cycle's
// value; in "caller" mode it never writes and the test drives the signal
// between Steps.
type wakeWriter struct {
	name string
	mode string
	out  *Wire
	cnt  int
}

func (m *wakeWriter) Name() string             { return m.name }
func (m *wakeWriter) Sensitivity() Sensitivity { return Sensitivity{Drives: []Signal{m.out}} }
func (m *wakeWriter) Eval() {
	if m.mode == "settle" {
		m.out.Set(wakePattern[m.cnt])
	}
}
func (m *wakeWriter) Tick() {
	m.cnt++
	if m.mode == "tick" {
		m.out.Set(wakePattern[m.cnt])
	}
}

// wakeReader is registered after the writer: its Eval copies the writer's
// signal to its own wire and logs the cycle it ran in, and its Tick logs
// every cycle whose clock edge saw the copy high. EvalStable keeps it
// asleep unless the signal wakes it.
type wakeReader struct {
	name  string
	s     *Simulator
	in    *Wire
	out   *Wire
	evals []uint64
	fires []uint64
}

func (m *wakeReader) Name() string { return m.name }
func (m *wakeReader) Sensitivity() Sensitivity {
	return Sensitivity{Reads: []Signal{m.in}, Drives: []Signal{m.out}}
}
func (m *wakeReader) EvalStable() bool { return true }
func (m *wakeReader) Eval() {
	m.evals = append(m.evals, m.s.Cycle())
	m.out.Set(m.in.Get())
}
func (m *wakeReader) Tick() {
	if m.out.Get() {
		m.fires = append(m.fires, m.s.Cycle())
	}
}

// runWake builds the writer→reader design, runs it for len(wakePattern)-1
// cycles and returns the reader plus the simulator's telemetry snapshot.
func runWake(t *testing.T, mode string, legacy bool) (*wakeReader, *telemetry.Snapshot) {
	t.Helper()
	s := New()
	s.SetLegacy(legacy)
	sink := telemetry.New()
	s.SetTelemetry(sink)
	sig := s.NewWire("a.sig")
	w := &wakeWriter{name: "a", mode: mode, out: sig}
	r := &wakeReader{name: "b", s: s, in: sig, out: s.NewWire("b.copy")}
	s.Register(w, r)
	for c := 0; c < len(wakePattern)-1; c++ {
		if mode == "caller" {
			sig.Set(wakePattern[c])
		}
		if err := s.Step(); err != nil {
			t.Fatalf("%s legacy=%v cycle %d: %v", mode, legacy, c, err)
		}
	}
	return r, sink.Gather()
}

// TestCrossModuleWakePaths covers the three ways a signal another module
// reads can change — the owner's Eval, the owner's Tick, and the caller
// between Steps. In each, the reader must fire exactly as on the legacy
// kernel, re-evaluate in the first Step whose settle sees the new value (and
// in no other Step), and count each change as one wakeup.
func TestCrossModuleWakePaths(t *testing.T) {
	var wantEvals, wantFires []uint64
	wantWakes := 0
	for c := range wakePattern[:len(wakePattern)-1] {
		if c == 0 || wakePattern[c] != wakePattern[c-1] {
			wantEvals = append(wantEvals, uint64(c))
			if c > 0 {
				wantWakes++
			}
		}
		if wakePattern[c] {
			wantFires = append(wantFires, uint64(c))
		}
	}
	for _, mode := range []string{"settle", "tick", "caller"} {
		t.Run(mode, func(t *testing.T) {
			leg, _ := runWake(t, mode, true)
			got, snap := runWake(t, mode, false)
			if !reflect.DeepEqual(leg.fires, wantFires) {
				t.Fatalf("legacy fires %v, want %v", leg.fires, wantFires)
			}
			if !reflect.DeepEqual(got.fires, leg.fires) {
				t.Fatalf("scheduler fires %v, legacy %v", got.fires, leg.fires)
			}
			if !reflect.DeepEqual(got.evals, wantEvals) {
				t.Fatalf("reader evaluated in cycles %v, want %v", got.evals, wantEvals)
			}
			if wakes := snap.Total("vidi_sched_wakeups_total"); wakes != float64(wantWakes) {
				t.Fatalf("wakeups %v, want %d", wakes, wantWakes)
			}
		})
	}
}
