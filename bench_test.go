package vidi

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus the §6 bandwidth analysis and the ablations called
// out in DESIGN.md. Absolute numbers come from the simulation substrate,
// not the authors' F1 testbed; the *shape* — who wins, by what rough
// factor, where the crossovers fall — is the reproduction target (see
// EXPERIMENTS.md for the side-by-side record).
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics are attached per benchmark: cycles, overhead-pct,
// trace-bytes, reduction-x, divergences, and so on.

import (
	"encoding/binary"
	"testing"

	"vidi/internal/baseline"
	"vidi/internal/eval"
	"vidi/internal/sim"
)

// BenchmarkTable1 regenerates Table 1: per application, the native cycle
// count (ET), the recording overhead R2-vs-R1, the Vidi trace size, and the
// reduction versus a cycle-accurate trace of the same execution.
func BenchmarkTable1(b *testing.B) {
	for _, name := range eval.DefaultTableApps() {
		name := name
		b.Run(name, func(b *testing.B) {
			var last eval.Table1Row
			for i := 0; i < b.N; i++ {
				rows, err := eval.Table1([]string{name}, 1, 1, 1000+int64(i))
				if err != nil {
					b.Fatal(err)
				}
				last = rows[0]
			}
			b.ReportMetric(float64(last.CyclesNative), "cycles")
			b.ReportMetric(last.OverheadPct, "overhead-pct")
			b.ReportMetric(float64(last.TraceBytes), "trace-bytes")
			b.ReportMetric(last.Reduction, "reduction-x")
		})
	}
}

// BenchmarkTable2 regenerates Table 2: per-application resource overhead of
// the full five-interface Vidi deployment (LUT/FF/BRAM as % of the F1
// device), from the calibrated area model.
func BenchmarkTable2(b *testing.B) {
	for _, row := range eval.Table2(eval.DefaultTableApps()) {
		row := row
		b.Run(row.App, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = eval.Table2([]string{row.App})
			}
			b.ReportMetric(row.LUTPct, "LUT-pct")
			b.ReportMetric(row.FFPct, "FF-pct")
			b.ReportMetric(row.BRAMPct, "BRAM-pct")
		})
	}
}

// BenchmarkFig7 regenerates Fig 7: resource overhead versus total monitored
// width over the paper's eleven interface combinations (136–3056 bits).
func BenchmarkFig7(b *testing.B) {
	for _, row := range eval.Fig7() {
		row := row
		b.Run(row.Combo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = eval.Fig7()
			}
			b.ReportMetric(float64(row.Bits), "bits")
			b.ReportMetric(row.LUTPct, "LUT-pct")
			b.ReportMetric(row.FFPct, "FF-pct")
			b.ReportMetric(row.BRAMPct, "BRAM-pct")
		})
	}
}

// BenchmarkEffectiveness regenerates the §5.4 experiment: record a
// reference trace (R2), replay while recording the validation trace (R3),
// and count divergences. Only the polling DRAM-DMA application diverges;
// its interrupt-patched variant (dma-irq) is clean.
func BenchmarkEffectiveness(b *testing.B) {
	names := append(eval.DefaultTableApps(), "dma-irq")
	for _, name := range names {
		name := name
		b.Run(name, func(b *testing.B) {
			var divergences, txns float64
			for i := 0; i < b.N; i++ {
				report, _, _, err := eval.RecordReplay(name, 1, 2000+int64(i))
				if err != nil {
					b.Fatal(err)
				}
				divergences = float64(len(report.Divergences))
				txns = float64(report.RefTransactions)
			}
			b.ReportMetric(divergences, "divergences")
			b.ReportMetric(txns, "transactions")
			if txns > 0 {
				b.ReportMetric(divergences/txns, "divergences/txn")
			}
		})
	}
}

// BenchmarkTraceSizes compares the trace volume of the three recording
// approaches — Vidi, order-less (Debug Governor), cycle-accurate
// (ILA/Panopticon) — per application, the quantitative basis of the design-
// space argument in §1 and §7.
func BenchmarkTraceSizes(b *testing.B) {
	for _, name := range eval.DefaultTableApps() {
		name := name
		b.Run(name, func(b *testing.B) {
			var row eval.SizeRow
			for i := 0; i < b.N; i++ {
				rows, err := eval.TraceSizes([]string{name}, 1, 3000+int64(i))
				if err != nil {
					b.Fatal(err)
				}
				row = rows[0]
			}
			b.ReportMetric(float64(row.VidiBytes), "vidi-bytes")
			b.ReportMetric(float64(row.OrderlessBytes), "orderless-bytes")
			b.ReportMetric(float64(row.CycleAccBytes), "cycleacc-bytes")
		})
	}
}

// BenchmarkSection6Bandwidth regenerates the §6 back-of-the-envelope
// analysis: the burst length after which a physical-timestamp tool
// (Panopticon) loses trace data, plus a simulated demonstration of the loss
// onset with an undersized buffer.
func BenchmarkSection6Bandwidth(b *testing.B) {
	a := eval.Section6()
	b.ReportMetric(a.RawGBps, "raw-GBps")
	b.ReportMetric(a.TimeToLossMs, "time-to-loss-ms")

	// Simulated confirmation, scaled down: stream back-to-back beats on a
	// wide channel with a cycle recorder whose buffer drains slower than
	// the production rate; loss must begin near buffer/(raw-drain).
	var lossFrac float64
	for i := 0; i < b.N; i++ {
		s := sim.New()
		ch := s.NewChannel("wide", 74) // ≈593 bits
		snd := sim.NewSender("snd", ch)
		rcv := sim.NewReceiver("rcv", ch)
		rec := baseline.NewCycleRecorder([]*sim.Channel{ch}, nil)
		rec.Capture = false
		rec.BufBytes = 4096
		rec.DrainPerCycle = 22
		s.Register(snd, rcv, rec)
		const beats = 500
		for k := 0; k < beats; k++ {
			snd.Push(make([]byte, 74))
		}
		if _, err := s.Run(10000, func() bool { return snd.Idle() && !ch.InFlight() }); err != nil {
			b.Fatal(err)
		}
		if rec.LostBytes == 0 {
			b.Fatal("expected trace loss in the Panopticon model")
		}
		lossFrac = float64(rec.LostBytes) / float64(rec.Total)
	}
	b.ReportMetric(lossFrac*100, "lost-pct")
}

// BenchmarkOrderlessBaseline quantifies why order-less record/replay
// (Debug Governor) is ineffective: replaying an order-dependent design from
// per-channel content streams alone fails to reproduce the outputs.
func BenchmarkOrderlessBaseline(b *testing.B) {
	diverged, total := 0, 0
	for i := 0; i < b.N; i++ {
		for seed := int64(0); seed < 5; seed++ {
			want, ord := runOrderWorkload(b, 100+seed)
			got := replayOrderless(b, ord)
			total++
			for k := range want {
				if k >= len(got) || got[k] != want[k] {
					diverged++
					break
				}
			}
		}
	}
	b.ReportMetric(float64(diverged)/float64(total)*100, "diverged-pct")
	if diverged == 0 {
		b.Fatal("order-less replay unexpectedly reproduced every ordering-dependent run")
	}
}

// BenchmarkAblationEveryCyclePacket measures what Table 1's trace sizes
// would be without the event-only cycle-packet optimization: one packet per
// clock cycle, the way a timestamped encoding behaves.
func BenchmarkAblationEveryCyclePacket(b *testing.B) {
	var eventOnly, everyCycle float64
	for i := 0; i < b.N; i++ {
		r1, err := eval.Run(eval.RunConfig{App: "sha", Scale: 1, Seed: 5, Cfg: eval.R2})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := eval.Run(eval.RunConfig{App: "sha", Scale: 1, Seed: 5, Cfg: eval.R2, EmitIdlePackets: true,
			BufBytes: 64 << 20, StoreBytesPerCycle: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		eventOnly = float64(r1.Trace.SizeBytes())
		everyCycle = float64(r2.Trace.SizeBytes())
	}
	b.ReportMetric(eventOnly, "event-only-bytes")
	b.ReportMetric(everyCycle, "every-cycle-bytes")
	b.ReportMetric(everyCycle/eventOnly, "inflation-x")
	if everyCycle <= eventOnly {
		b.Fatal("idle packets should inflate the trace")
	}
}

// BenchmarkAblationStoreAndForward measures the recording latency cost of
// the conservative store-and-forward monitor versus the default cut-through
// design.
func BenchmarkAblationStoreAndForward(b *testing.B) {
	var ct, saf float64
	for i := 0; i < b.N; i++ {
		r1, err := eval.Run(eval.RunConfig{App: "dma", Scale: 1, Seed: 9, Cfg: eval.R2})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := eval.Run(eval.RunConfig{App: "dma", Scale: 1, Seed: 9, Cfg: eval.R2, StoreAndForward: true})
		if err != nil {
			b.Fatal(err)
		}
		ct, saf = float64(r1.Cycles), float64(r2.Cycles)
	}
	b.ReportMetric(ct, "cut-through-cycles")
	b.ReportMetric(saf, "store-and-forward-cycles")
	b.ReportMetric((saf-ct)/ct*100, "saf-penalty-pct")
}

// --- order-less baseline workload (a miniature order-dependent design) ---

type benchOrderApp struct {
	add, xor, out *sim.Channel
	acc           uint32
	queue         [][]byte
	active        bool
	cur           []byte
	Outputs       []uint32
}

func (a *benchOrderApp) Name() string { return "orderapp" }
func (a *benchOrderApp) Eval() {
	a.add.Ready.Set(len(a.queue) < 8)
	a.xor.Ready.Set(len(a.queue) < 8)
	a.out.Valid.Set(a.active)
	if a.active {
		a.out.Data.Set(a.cur)
	}
}
func (a *benchOrderApp) Tick() {
	if a.add.Fired() {
		a.acc += binary.LittleEndian.Uint32(a.add.Data.Get())
		a.emit()
	}
	if a.xor.Fired() {
		a.acc ^= binary.LittleEndian.Uint32(a.xor.Data.Get())
		a.emit()
	}
	if a.active && a.out.Fired() {
		a.Outputs = append(a.Outputs, binary.LittleEndian.Uint32(a.cur))
		a.active = false
	}
	if !a.active && len(a.queue) > 0 {
		a.cur = a.queue[0]
		a.queue = a.queue[1:]
		a.active = true
	}
}
func (a *benchOrderApp) emit() {
	buf := make([]byte, 4)
	binary.LittleEndian.PutUint32(buf, a.acc)
	a.queue = append(a.queue, buf)
}

func buildOrderWorld() (*sim.Simulator, *benchOrderApp, *sim.Channel, *sim.Channel, *sim.Channel) {
	s := sim.New()
	add := s.NewChannel("add", 4)
	xor := s.NewChannel("xor", 4)
	out := s.NewChannel("out", 4)
	app := &benchOrderApp{add: add, xor: xor, out: out}
	s.Register(app)
	return s, app, add, xor, out
}

func runOrderWorkload(b *testing.B, seed int64) ([]uint32, *baseline.OrderlessTrace) {
	b.Helper()
	s, app, add, xor, out := buildOrderWorld()
	addS := sim.NewSender("addS", add)
	xorS := sim.NewSender("xorS", xor)
	outR := sim.NewReceiver("outR", out)
	rng := sim.NewRand(seed)
	addS.Gap = sim.GapPolicy(rng, 0, 5)
	xorS.Gap = sim.GapPolicy(rng, 0, 5)
	outR.Policy = sim.JitterPolicy(rng, 60)
	ord := baseline.NewOrderlessRecorder([]*sim.Channel{add, xor})
	s.Register(addS, xorS, outR, ord)
	const n = 20
	for k := 0; k < n; k++ {
		v := make([]byte, 4)
		binary.LittleEndian.PutUint32(v, uint32(3*k+1))
		addS.Push(v)
		binary.LittleEndian.PutUint32(v, uint32(5*k+2))
		xorS.Push(v)
	}
	if _, err := s.Run(10000, func() bool { return len(app.Outputs) == 2*n }); err != nil {
		b.Fatal(err)
	}
	return app.Outputs, ord.Trace()
}

func replayOrderless(b *testing.B, tr *baseline.OrderlessTrace) []uint32 {
	b.Helper()
	s, app, add, xor, out := buildOrderWorld()
	rep := baseline.NewOrderlessReplayer(s, tr, []*sim.Channel{add, xor})
	outR := sim.NewReceiver("outR", out)
	s.Register(outR)
	if _, err := s.Run(10000, func() bool { return rep.Done() && len(app.Outputs) == 40 }); err != nil {
		b.Fatal(err)
	}
	return app.Outputs
}
