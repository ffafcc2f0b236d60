package sim

import "vidi/internal/telemetry"

// SetTelemetry attaches a metrics/tracing sink to the simulator. The
// scheduler keeps its counters on plain fields and registers a read of each
// with the sink, which reads them when it is gathered — telemetry never adds
// work or allocation to the hot path, which is what keeps instrumented
// golden runs byte-identical.
//
// A nil sink detaches instrumentation. The schedule is rebuilt lazily on
// the next Step.
func (s *Simulator) SetTelemetry(sink *telemetry.Sink) {
	s.tel = sink
	s.invalidate()
}

// bindTelemetry registers the schedule's fields as series sources and
// (with tracing) one Perfetto "scheduler" track carrying coalesced busy
// spans. A rebuilt schedule registers again; each series sums its sources,
// so the counts of earlier schedules stay in the totals.
func (sc *scheduler) bindTelemetry(sink *telemetry.Sink) {
	sink.GaugeFunc("vidi_sched_modules",
		"Registered modules in the schedule.", func() float64 { return float64(len(sc.mods)) })
	sink.GaugeFunc("vidi_sched_cycles",
		"Completed clock cycles at the last scrape.", func() float64 { return float64(sc.sim.cycle) })
	sink.CounterFunc("vidi_sched_evals_total",
		"Module Eval invocations.", func() uint64 { return sc.evals })
	sink.CounterFunc("vidi_sched_waves_total",
		"Settle iterations (delta cycles).", func() uint64 { return sc.waves })
	sink.CounterFunc("vidi_sched_skipped_evals_total",
		"Eval calls avoided relative to the legacy fixpoint.", func() uint64 { return sc.skipped })
	sink.CounterFunc("vidi_sched_skipped_ticks_total",
		"Tick calls avoided by clock-edge gating.", func() uint64 { return sc.tickSkips })
	sink.CounterFunc("vidi_sched_wakeups_total",
		"Event-driven pending marks (signal changes and Touch hooks).", func() uint64 { return sc.wakes })
	sink.CounterFunc("vidi_sched_busy_cycles_total",
		"Cycles with at least one Eval; against vidi_sched_cycles this is the scheduler's duty cycle.",
		func() uint64 { return sc.busyCycles })
	sink.CounterFunc("vidi_sched_batched_cycles_total",
		"Clock cycles skipped wholesale by quiescence batching.", func() uint64 { return sc.batchedCycles })
	if sink.Tracing() {
		sc.track = sink.Track("scheduler", "settle")
	}
	sink.OnGather(func() {
		if sc.spanOpen {
			sc.track.Span("busy", sc.spanStart, sc.spanEnd)
			sc.spanOpen = false
		}
	})
}
