package sim

import "testing"

// horizonCounter is a minimal quiescence-batchable module: it burns a cycle
// budget in Tick, promises the burn is mechanical via TickHorizon, and
// fast-forwards it in SkipTicks.
type horizonCounter struct {
	NullEval
	name  string
	left  int
	fires int
	wake  func()
}

func (m *horizonCounter) Name() string          { return m.name }
func (m *horizonCounter) TickWatch() []*Channel { return nil }
func (m *horizonCounter) TickStable() bool      { return m.left == 0 }
func (m *horizonCounter) BindTickWake(w func()) { m.wake = w }
func (m *horizonCounter) TickHorizon(now uint64) uint64 {
	if m.left <= 1 {
		return now
	}
	return now + uint64(m.left) - 1
}
func (m *horizonCounter) SkipTicks(n uint64) { m.left -= int(n) }
func (m *horizonCounter) Tick() {
	if m.left > 0 {
		m.left--
		if m.left == 0 {
			m.fires++
		}
	}
}

// TestQuiescenceBatchingSkipsCycles checks the time layer end to end on a
// minimal design: a horizon-declaring counter must reach its firing cycle
// with the bulk of the stretch batch-skipped, at exactly the cycle count
// the legacy kernel takes.
func TestQuiescenceBatchingSkipsCycles(t *testing.T) {
	const budget = 10_000
	run := func(legacy bool) (uint64, Stats) {
		s := New()
		s.SetLegacy(legacy)
		m := &horizonCounter{name: "ctr", left: budget}
		s.Register(m)
		cycles, err := s.Run(5*budget, func() bool { return m.fires > 0 })
		if err != nil {
			t.Fatalf("legacy=%v: %v", legacy, err)
		}
		if m.fires != 1 || m.left != 0 {
			t.Fatalf("legacy=%v: fires=%d left=%d", legacy, m.fires, m.left)
		}
		return cycles, s.Stats()
	}
	legCycles, _ := run(true)
	schCycles, st := run(false)
	if schCycles != legCycles {
		t.Fatalf("batched run took %d cycles, legacy %d", schCycles, legCycles)
	}
	if st.BatchedCycles < budget-10 {
		t.Fatalf("batched only %d of ~%d cycles: %v", st.BatchedCycles, budget, st)
	}
}

// TestStatsLegacyReporting pins what Stats carries across a kernel flip:
// the legacy kernel must report no ReadsAll fallbacks — including after a
// SetLegacy flip on a simulator whose scheduler reported one — so a bench
// row can never carry a stale scheduler shape, and the cycle count must
// carry over.
func TestStatsLegacyReporting(t *testing.T) {
	s := New()
	s.Register(&nopModule{name: "a"}, &nopModule{name: "b"})
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); len(st.ReadsAllModules) != 2 {
		t.Fatalf("scheduler stats: %+v", st)
	}

	s.SetLegacy(true)
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.ReadsAllModules) != 0 {
		t.Fatalf("legacy stats after SetLegacy: %+v", st)
	}
	if st.Cycles != 2 {
		t.Fatalf("cycles not carried across kernel flip: %+v", st)
	}
}
