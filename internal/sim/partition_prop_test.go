package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// propMod is a no-op module with a scripted sensitivity declaration, for
// property tests over the partitioner.
type propMod struct {
	name string
	sens Sensitivity
}

func (m *propMod) Name() string { return m.name }

// Eval is a no-op; the declaration is scripted, not derived from code.
//
//lint:sensaudit property test scripts Sensitivity from a randomized field
func (m *propMod) Eval() {}

// Tick is a no-op; Sensitivity comes from the randomized field above.
//
//lint:partwrite property test scripts Sensitivity from a randomized field
func (m *propMod) Tick()                    {}
func (m *propMod) Sensitivity() Sensitivity { return m.sens }

// TestPartitioningNeverSplitsTies is the tie-preservation property test:
// across randomized designs — random drive/read edges, a sprinkling of
// ReadsAll modules, random Tie groups — every declared Tie group must land
// inside a single partition.
func TestPartitioningNeverSplitsTies(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := New()

			nm := 4 + rng.Intn(16)
			nw := 2 + rng.Intn(24)
			wires := make([]*Wire, nw)
			for i := range wires {
				wires[i] = s.NewWire(fmt.Sprintf("w%d", i))
			}
			mods := make([]*propMod, nm)
			for i := range mods {
				mods[i] = &propMod{name: fmt.Sprintf("m%d", i)}
				s.Register(mods[i])
			}
			// Each wire gets at most one driver; each module reads a few
			// random wires. One design in five has a ReadsAll module.
			for _, w := range wires {
				if rng.Intn(4) > 0 {
					d := mods[rng.Intn(nm)]
					d.sens.Drives = append(d.sens.Drives, w)
				}
			}
			for _, m := range mods {
				for k := rng.Intn(4); k > 0; k-- {
					m.sens.Reads = append(m.sens.Reads, wires[rng.Intn(nw)])
				}
			}
			if rng.Intn(5) == 0 {
				mods[rng.Intn(nm)].sens = Sensitivity{ReadsAll: true}
			}
			// Random Tie groups over disjoint module sets.
			perm := rng.Perm(nm)
			for len(perm) >= 2 && rng.Intn(2) == 0 {
				n := 2 + rng.Intn(3)
				if n > len(perm) {
					n = len(perm)
				}
				group := make([]Module, n)
				for i := 0; i < n; i++ {
					group[i] = mods[perm[i]]
				}
				perm = perm[n:]
				s.Tie(group...)
			}

			layout, err := s.PartitionLayout()
			if err != nil {
				t.Fatal(err)
			}
			partOf := map[string]int{}
			for pi, names := range layout {
				for _, n := range names {
					partOf[n] = pi
				}
			}
			for gi, group := range s.TieGroups() {
				for _, n := range group[1:] {
					if partOf[n] != partOf[group[0]] {
						t.Fatalf("tie group %d split: %s in partition %d, %s in %d\nlayout: %v",
							gi, group[0], partOf[group[0]], n, partOf[n], layout)
					}
				}
			}
		})
	}
}

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

// TestStatsLegacyReporting pins the shape counters the bench table prints:
// the legacy kernel must always report exactly one partition and one
// settle layer — including after a SetLegacy flip on a simulator that
// already ran partitioned — so a bench row can never carry a stale
// scheduler shape.
func TestStatsLegacyReporting(t *testing.T) {
	s := New()
	a := &propMod{name: "a"}
	b := &propMod{name: "b"}
	s.Register(a, b)
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Partitions != 2 || st.SettleLayers != 1 {
		t.Fatalf("scheduler stats: %+v", st)
	}

	s.SetLegacy(true)
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Partitions != 1 || st.SettleLayers != 1 {
		t.Fatalf("legacy stats after SetLegacy: %+v", st)
	}
	if st.Cycles != 2 {
		t.Fatalf("cycles not carried across kernel flip: %+v", st)
	}
}
