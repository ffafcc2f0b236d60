package core

import (
	"testing"

	"vidi/internal/sim"
	"vidi/internal/trace"
)

func TestCompareRejectsMismatchedChannelCounts(t *testing.T) {
	a := trace.NewTrace(trace.NewMeta([]trace.ChannelInfo{
		{Name: "x", Width: 1, Dir: trace.Input},
	}, true))
	b := trace.NewTrace(trace.NewMeta([]trace.ChannelInfo{
		{Name: "x", Width: 1, Dir: trace.Input},
		{Name: "y", Width: 1, Dir: trace.Output},
	}, true))
	if _, err := Compare(a, b); err == nil {
		t.Fatal("expected channel-count mismatch error")
	}
}

func TestBoundaryRejectsWidthMismatch(t *testing.T) {
	s := sim.New()
	env := s.NewChannel("e", 4)
	app := s.NewChannel("a", 8)
	b := NewBoundary()
	if err := b.Add(trace.ChannelInfo{Name: "c", Width: 4, Dir: trace.Input}, env, app); err == nil {
		t.Fatal("expected width mismatch error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd should panic on mismatch")
		}
	}()
	b.MustAdd(trace.ChannelInfo{Name: "c", Width: 4, Dir: trace.Input}, env, app)
}

func TestMoveEndBeforeMissingOrdinals(t *testing.T) {
	m := trace.NewMeta([]trace.ChannelInfo{
		{Name: "a", Width: 1, Dir: trace.Input},
		{Name: "b", Width: 1, Dir: trace.Output},
	}, false)
	tr := trace.NewTrace(m)
	tr.Append(false).Start(0, []byte{1}).End(0, nil)
	if err := MoveEndBefore(tr, "a", 5, "a", 0); err == nil {
		t.Fatal("expected missing-end error for ordinal 5")
	}
	if err := MoveEndBefore(tr, "a", 0, "b", 0); err == nil {
		t.Fatal("expected missing-end error on target channel")
	}
	// Already-before is a no-op, not an error.
	tr.Append(false).End(1, nil)
	if err := MoveEndBefore(tr, "a", 0, "b", 0); err != nil {
		t.Fatalf("already-before should be a no-op: %v", err)
	}
}

func TestShimModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{ModeOff: "off", ModeRecord: "record", ModeReplay: "replay"} {
		if m.String() != want {
			t.Fatalf("%d: %q", m, m.String())
		}
	}
}

func TestOnlyInterfacesHelper(t *testing.T) {
	o := &Options{}
	if !o.interfaceEnabled("anything") {
		t.Fatal("nil selection must enable everything")
	}
	o.OnlyInterfaces = []string{"ocl"}
	if !o.interfaceEnabled("ocl") || o.interfaceEnabled("pcis") {
		t.Fatal("selection filter wrong")
	}
}
