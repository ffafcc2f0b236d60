package sim

import (
	"errors"
	"strings"
	"testing"
)

// probeMod is a module with a configurable (possibly wrong) declaration.
type probeMod struct {
	name string
	eval func()
	sens Sensitivity
}

func (m *probeMod) Name() string { return m.name }

//lint:sensaudit deliberately misdeclared test module; the dynamic checker is the subject under test
func (m *probeMod) Eval() { m.eval() }

func (m *probeMod) Tick()                    {}
func (m *probeMod) Sensitivity() Sensitivity { return m.sens }

func TestSensitivityCheckUndeclaredRead(t *testing.T) {
	s := New()
	s.SetSensitivityCheck(true)
	in := s.NewWire("in")
	out := s.NewWire("out")
	// The module reads in but declares no Reads: a missed-wakeup bug the
	// checker must catch on the very first settle.
	s.Register(&probeMod{
		name: "bad-reader",
		eval: func() { out.Set(in.Get()) },
		sens: Sensitivity{Drives: []Signal{out}},
	})
	err := s.Step()
	if !errors.Is(err, ErrSensitivity) {
		t.Fatalf("Step: got %v, want ErrSensitivity", err)
	}
	var sv *SensitivityViolationError
	if !errors.As(err, &sv) {
		t.Fatalf("Step: error %v is not a *SensitivityViolationError", err)
	}
	if sv.Module != "bad-reader" || sv.Signal != "in" || sv.Kind != "read" {
		t.Fatalf("violation = %+v, want bad-reader/in/read", sv)
	}
}

func TestSensitivityCheckUndeclaredDrive(t *testing.T) {
	s := New()
	s.SetSensitivityCheck(true)
	out := s.NewWire("out")
	s.Register(&probeMod{
		name: "bad-driver",
		eval: func() { out.Set(true) },
		sens: Sensitivity{},
	})
	err := s.Step()
	var sv *SensitivityViolationError
	if !errors.As(err, &sv) {
		t.Fatalf("Step: got %v, want *SensitivityViolationError", err)
	}
	if sv.Kind != "drive" || sv.Signal != "out" {
		t.Fatalf("violation = %+v, want out/drive", sv)
	}
	if !strings.Contains(sv.Error(), "hidden writer") {
		t.Fatalf("error %q does not explain the drive consequence", sv.Error())
	}
}

func TestSensitivityCheckDeclaredDriveLicensesReadBack(t *testing.T) {
	s := New()
	s.SetSensitivityCheck(true)
	out := s.NewWire("out")
	// Re-reading a signal the module itself drives (and declares) is legal:
	// the value can only change when the module changes it.
	s.Register(&probeMod{
		name: "read-back",
		eval: func() { out.Set(!out.Get()) },
		sens: Sensitivity{Drives: []Signal{out}},
	})
	// No other module reads out, so the settle converges after one wave; the
	// point is that the checker must not misreport the read-back.
	if err := s.Step(); err != nil {
		t.Fatalf("Step: got %v, want nil (read-back of a declared drive is legal)", err)
	}
}

func TestSensitivityCheckReadsAllExempt(t *testing.T) {
	s := New()
	s.SetSensitivityCheck(true)
	in := s.NewWire("in")
	out := s.NewWire("out")
	s.Register(&probeMod{
		name: "conservative",
		eval: func() { out.Set(in.Get()) },
		sens: ReadsEverything(),
	})
	if err := s.Step(); err != nil {
		t.Fatalf("Step: ReadsAll module must be exempt, got %v", err)
	}
	st := s.Stats()
	if len(st.ReadsAllModules) != 1 || st.ReadsAllModules[0] != "conservative" {
		t.Fatalf("Stats.ReadsAllModules = %v, want [conservative]", st.ReadsAllModules)
	}
	if !strings.Contains(st.String(), "readsall=1[conservative]") {
		t.Fatalf("Stats.String() = %q, want readsall report", st.String())
	}
}

func TestSensitivityCheckCleanDesign(t *testing.T) {
	s := New()
	s.SetSensitivityCheck(true)
	ch := s.NewChannel("ch", 4)
	snd := NewSender("snd", ch)
	rcv := NewReceiver("rcv", ch)
	s.Register(snd, rcv)
	snd.Push([]byte{1, 2, 3, 4})
	for i := 0; i < 10; i++ {
		if err := s.Step(); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}
	if len(rcv.Received) != 1 {
		t.Fatalf("received %d payloads, want 1", len(rcv.Received))
	}
}

func TestSensitivityCheckLegacyNoop(t *testing.T) {
	s := New()
	s.SetSensitivityCheck(true)
	s.SetLegacy(true)
	in := s.NewWire("in")
	out := s.NewWire("out")
	// Deliberately wrong declaration: the legacy kernel has no declarations
	// to audit, so this must run clean.
	s.Register(&probeMod{
		name: "legacy",
		eval: func() { out.Set(in.Get()) },
		sens: Sensitivity{},
	})
	if err := s.Step(); err != nil {
		t.Fatalf("Step under legacy kernel: %v", err)
	}
}
