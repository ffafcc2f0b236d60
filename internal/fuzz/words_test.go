package fuzz

import (
	"testing"

	"vidi/internal/telemetry"
)

// TestSmokeSeedsCrossBitsetWord keeps the kernel-divergence oracle reaching
// the scheduler's multi-word activity sets: at least one of the seeds
// `make fuzz-smoke` runs (1..50, clean mode) must build a scheduler-leg
// design with more than 64 modules or more than 64 channels, so a slip at a
// bitset word boundary shows up as a legacy-vs-scheduler trace diff in CI.
func TestSmokeSeedsCrossBitsetWord(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		sc := mustGen(t, seed, genOpt(false))
		sink := telemetry.New()
		// One cycle builds the schedule; the run is cut short on purpose.
		res := runScenario(sc, runOpts{record: true, faults: true, vcd: true, tel: sink, budget: 1})
		mods := sink.Gather().Total("vidi_sched_modules")
		chans := len(res.design.sys.Sim.Channels())
		if mods > 64 || chans > 64 {
			t.Logf("seed %d: %v modules, %d channels", seed, mods, chans)
			return
		}
	}
	t.Fatal("no fuzz-smoke seed builds a design beyond one 64-bit bitset word")
}
