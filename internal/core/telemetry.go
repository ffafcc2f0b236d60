package core

import (
	"vidi/internal/sim"
	"vidi/internal/telemetry"
)

// This file wires the shim into a telemetry.Sink. Every component keeps its
// counters on plain fields written only from its own Tick, on the
// simulation's single goroutine; bindTelemetry registers a read of each
// field, which the sink makes when it is gathered. Nothing on the hot path
// gains synchronisation or allocation, which keeps instrumented golden runs
// byte-identical, including under -race.

// bindTelemetry registers the shim's series with the sink and (with tracing)
// gives every interposed boundary channel a Perfetto lane — one track group
// per AXI interface — carrying one span per transaction.
func (sh *Shim) bindTelemetry(s *sim.Simulator, sink *telemetry.Sink) {
	for _, m := range sh.monitors {
		if m.ci < 0 {
			continue // excluded interfaces stay uninstrumented passthroughs
		}
		m.now = s.Cycle
		if sink.Tracing() {
			m.track = sink.Track("axi."+m.bc.Info.Interface, m.bc.Info.Name)
		}
		lbl := telemetry.L("channel", m.bc.Info.Name)
		sink.CounterFunc("vidi_monitor_observed_events_total",
			"Receiver-side handshake events (starts and ends) seen at the boundary.",
			func() uint64 { return m.observed }, lbl)
		sink.CounterFunc("vidi_monitor_recorded_events_total",
			"Boundary events logged to the trace encoder.",
			func() uint64 { return m.recorded }, lbl)
		sink.CounterFunc("vidi_monitor_gapped_ends_total",
			"Output ends whose contents were shed in lossy (degraded) mode.",
			func() uint64 { return m.gapped }, lbl)
	}

	if e := sh.encoder; e != nil {
		sink.CounterFunc("vidi_encoder_denials_total",
			"CanAccept refusals — cycles a monitor waited for encoder space.",
			func() uint64 { return e.Denials })
		sink.CounterFunc("vidi_encoder_gaps_total",
			"Distinct lossy gaps entered by degraded recording.",
			func() uint64 { return e.GapCount })
		sink.CounterFunc("vidi_encoder_unrecorded_ends_total",
			"Output end contents shed while lossy.",
			func() uint64 { return e.UnrecordedEnds })
		sink.GaugeFunc("vidi_encoder_buffered_bytes",
			"Trace bytes staged on-FPGA at the last scrape.",
			func() float64 { return float64(e.BufferedBytes()) })
	}

	for _, st := range []*Store{sh.recStore, sh.repStore} {
		if st == nil {
			continue
		}
		lbl := telemetry.L("store", st.name)
		sink.CounterFunc("vidi_store_stored_bytes_total",
			"Trace bytes moved through the storage transport.",
			func() uint64 { return st.StoredBytes }, lbl)
		sink.CounterFunc("vidi_store_retries_total",
			"Failed transfer attempts that scheduled a backoff retry.",
			func() uint64 { return st.Retries }, lbl)
		sink.CounterFunc("vidi_store_stalls_total",
			"Accept calls rejected while unavailable (link starvation or backoff).",
			func() uint64 { return st.Stalls }, lbl)
	}

	for _, r := range sh.replayers {
		sink.CounterFunc("vidi_replay_gate_stalls_total",
			"Replayer passes parked on the happens-before precondition.",
			func() uint64 { return r.gateStalls }, telemetry.L("channel", r.bc.Info.Name))
	}
	if d := sh.decoder; d != nil {
		sink.CounterFunc("vidi_replay_fetch_stalls_total",
			"Decoder cycles that exhausted the trace fetch bandwidth.",
			func() uint64 { return d.fetchStalls })
	}
}
