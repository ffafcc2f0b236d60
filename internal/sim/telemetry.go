package sim

import "vidi/internal/telemetry"

// SetTelemetry attaches a metrics/tracing sink to the simulator. The
// scheduler keeps its counters on plain fields and registers a
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

// schedGather is the delta state one bindTelemetry call tracks between
// scrapes, so re-gathering (vidi-top after -metrics) never double-counts.
type schedGather struct {
	evals, waves, skipped, tickSkips *telemetry.Counter
	wakes, busy, batched             *telemetry.Counter
	lastEvals, lastWaves             uint64
	lastSkipped, lastTickSkips       uint64
	lastWakes, lastBusy, lastBatched uint64
}

// bindTelemetry registers the schedule's series with the sink: a shape
// gauge set once, counters folded on scrape, and (with tracing) one Perfetto
// "scheduler" track carrying coalesced busy spans.
func (sc *scheduler) bindTelemetry(sink *telemetry.Sink) {
	sink.Gauge("vidi_sched_modules",
		"Registered modules in the schedule.").Set(float64(len(sc.mods)))
	cycles := sink.Gauge("vidi_sched_cycles",
		"Completed clock cycles at the last scrape.")
	g := &schedGather{
		evals: sink.Counter("vidi_sched_evals_total",
			"Module Eval invocations."),
		waves: sink.Counter("vidi_sched_waves_total",
			"Settle iterations (delta cycles)."),
		skipped: sink.Counter("vidi_sched_skipped_evals_total",
			"Eval calls avoided relative to the legacy fixpoint."),
		tickSkips: sink.Counter("vidi_sched_skipped_ticks_total",
			"Tick calls avoided by clock-edge gating."),
		wakes: sink.Counter("vidi_sched_wakeups_total",
			"Event-driven pending marks (signal changes and Touch hooks)."),
		busy: sink.Counter("vidi_sched_busy_cycles_total",
			"Cycles with at least one Eval; against vidi_sched_cycles this is the scheduler's duty cycle."),
		batched: sink.Counter("vidi_sched_batched_cycles_total",
			"Clock cycles skipped wholesale by quiescence batching."),
	}
	if sink.Tracing() {
		sc.track = sink.Track("scheduler", "settle")
	}
	sink.OnGather(func() {
		cycles.Set(float64(sc.sim.cycle))
		g.evals.Add(sc.evals - g.lastEvals)
		g.waves.Add(sc.waves - g.lastWaves)
		g.skipped.Add(sc.skipped - g.lastSkipped)
		g.tickSkips.Add(sc.tickSkips - g.lastTickSkips)
		g.wakes.Add(sc.wakes - g.lastWakes)
		g.busy.Add(sc.busyCycles - g.lastBusy)
		g.batched.Add(sc.batchedCycles - g.lastBatched)
		g.lastEvals, g.lastWaves = sc.evals, sc.waves
		g.lastSkipped, g.lastTickSkips = sc.skipped, sc.tickSkips
		g.lastWakes, g.lastBusy, g.lastBatched = sc.wakes, sc.busyCycles, sc.batchedCycles
		if sc.spanOpen {
			sc.track.Span("busy", sc.spanStart, sc.spanEnd)
			sc.spanOpen = false
		}
	})
}
