package shell

import (
	"vidi/internal/telemetry"
)

// bindTelemetry attaches the sink to the shell's engines and the CPU agent.
// The engines' burst and beat counts and the IRQ total stay on the fields
// that own them, written only from the simulation's goroutine; the sink
// reads them when it is gathered.
func (sys *System) bindTelemetry(sink *telemetry.Sink) {
	// engine registers one engine's counts and, for a manager (track and
	// now non-nil) with tracing armed, its span lane.
	engine := func(name string, bursts, beats *uint64, track **telemetry.Track, now *func() uint64) {
		lbl := telemetry.L("engine", name)
		sink.CounterFunc("vidi_axi_bursts_total",
			"AXI bursts completed by shell engines.", func() uint64 { return *bursts }, lbl)
		sink.CounterFunc("vidi_axi_beats_total",
			"AXI data beats moved by shell engines.", func() uint64 { return *beats }, lbl)
		if track != nil && sink.Tracing() {
			*track = sink.Track("shell.engines", name)
			*now = sys.Sim.Cycle
		}
	}

	engine("ddr-ctrl", &sys.DDRSub.Bursts, &sys.DDRSub.Beats, nil, nil)
	if s := sys.hostMem; s != nil {
		engine("host-dram", &s.Bursts, &s.Beats, nil, nil)
	}

	if c := sys.CPU; c != nil {
		for i, w := range c.liteW {
			r := c.liteR[i]
			engine(w.Name(), &w.Bursts, &w.Beats, &w.Track, &w.Now)
			engine(r.Name(), &r.Bursts, &r.Beats, &r.Track, &r.Now)
		}
		engine(c.dmaW.Name(), &c.dmaW.Bursts, &c.dmaW.Beats, &c.dmaW.Track, &c.dmaW.Now)
		engine(c.dmaR.Name(), &c.dmaR.Bursts, &c.dmaR.Beats, &c.dmaR.Track, &c.dmaR.Now)
		c.tel = sink
		c.jitterHist = sink.Quantile("vidi_cpu_jitter_cycles",
			"Seeded inter-op delays drawn by CPU agent threads.")
	}

	sink.CounterFunc("vidi_shell_irqs_total",
		"User interrupts delivered to the environment.", func() uint64 { return uint64(sys.IRQReceived) })
}
