package sim

import (
	"fmt"
	"strconv"

	"vidi/internal/telemetry"
)

// SetTelemetry attaches a metrics/tracing sink to the simulator. The
// scheduler keeps its counters on plain per-partition fields and registers a
// fold-the-deltas callback that copies them into the sink when it is scraped
// — telemetry never adds allocation to the hot path, which is what keeps
// instrumented golden runs byte-identical.
//
// A nil sink detaches instrumentation. The schedule is rebuilt lazily on
// the next Step.
func (s *Simulator) SetTelemetry(sink *telemetry.Sink) {
	s.tel = sink
	s.invalidate()
}

// schedGather is the per-partition delta state one bindTelemetry call
// tracks between scrapes, so re-gathering (vidi-top after -metrics) never
// double-counts.
type schedGather struct {
	evals, waves, skipped, tickSkips *telemetry.Counter
	wakes, busy, evalNS              *telemetry.Counter
	lastEvals, lastWaves             uint64
	lastSkipped, lastTickSkips       uint64
	lastWakes, lastBusy, lastEvalNS  uint64
}

// bindTelemetry registers the schedule's series with the sink: shape gauges
// set once, per-partition counters folded on scrape, and (with tracing) one
// Perfetto track per partition carrying coalesced busy spans.
func (sc *scheduler) bindTelemetry(sink *telemetry.Sink) {
	sc.timed = true
	sink.Gauge("vidi_sched_partitions",
		"Independent components of the sensitivity graph.").Set(float64(len(sc.parts)))
	sink.Gauge("vidi_sched_layers",
		"Settle layers of the partition dependency DAG.").Set(float64(len(sc.layers)))
	sink.Gauge("vidi_sched_modules",
		"Registered modules in the schedule.").Set(float64(len(sc.mods)))
	cycles := sink.Gauge("vidi_sched_cycles",
		"Completed clock cycles at the last scrape.")
	batched := sink.Counter("vidi_sched_batched_cycles_total",
		"Clock cycles skipped wholesale by quiescence batching.")
	var lastBatched uint64

	gs := make([]schedGather, len(sc.parts))
	for i := range sc.parts {
		lbl := telemetry.L("partition", strconv.Itoa(i))
		gs[i] = schedGather{
			evals: sink.Counter("vidi_sched_evals_total",
				"Module Eval invocations.", lbl),
			waves: sink.Counter("vidi_sched_waves_total",
				"Settle iterations (delta cycles).", lbl),
			skipped: sink.Counter("vidi_sched_skipped_evals_total",
				"Eval calls avoided relative to the legacy fixpoint.", lbl),
			tickSkips: sink.Counter("vidi_sched_skipped_ticks_total",
				"Tick calls avoided by clock-edge gating.", lbl),
			wakes: sink.Counter("vidi_sched_wakeups_total",
				"Event-driven pending marks (signal changes and Touch hooks).", lbl),
			busy: sink.Counter("vidi_sched_busy_cycles_total",
				"Cycles in which the partition ran at least one Eval; against vidi_sched_cycles this is the partition's duty cycle.", lbl),
			evalNS: sink.Counter("vidi_sched_eval_ns_total",
				"Wall-clock nanoseconds spent settling the partition, sampled one cycle in 16 and scaled.", lbl),
		}
		if sink.Tracing() {
			sc.parts[i].track = sink.Track("scheduler", fmt.Sprintf("partition %d", i))
		}
	}
	sink.OnGather(func() {
		cycles.Set(float64(sc.sim.cycle))
		batched.Add(sc.batchedCycles - lastBatched)
		lastBatched = sc.batchedCycles
		for i := range sc.parts {
			p, g := &sc.parts[i], &gs[i]
			g.evals.Add(p.evals - g.lastEvals)
			g.waves.Add(p.waves - g.lastWaves)
			g.skipped.Add(p.skipped - g.lastSkipped)
			g.tickSkips.Add(p.tickSkips - g.lastTickSkips)
			g.wakes.Add(p.wakes - g.lastWakes)
			g.busy.Add(p.busyCycles - g.lastBusy)
			g.evalNS.Add(p.evalNS - g.lastEvalNS)
			g.lastEvals, g.lastWaves = p.evals, p.waves
			g.lastSkipped, g.lastTickSkips = p.skipped, p.tickSkips
			g.lastWakes, g.lastBusy, g.lastEvalNS = p.wakes, p.busyCycles, p.evalNS
			if p.spanOpen {
				p.track.Span("busy", p.spanStart, p.spanEnd)
				p.spanOpen = false
			}
		}
	})
}
