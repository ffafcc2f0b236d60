// Custom boundary (§4.1 of the Vidi paper): the prototype records the five
// CPU-facing AXI interfaces by default, but a developer can point Vidi at
// any AXI-like interface — the paper extends it to the DDR4 interface and
// application-internal buses with ~13 lines per interface.
//
// This example declares a record/replay boundary over an *internal* DDR
// interface: the program side is a scatter/gather engine issuing write and
// read bursts; the environment side is the DDR controller with jittered
// response latencies. Recording captures the B/R responses; replay
// recreates the DDR controller's behaviour without the controller.
//
// Run:
//
//	go run ./examples/custom-boundary
package main

import (
	"bytes"
	"fmt"
	"log"

	"vidi"
	"vidi/internal/axi"
)

// world is one instance of the design: engines (program) on the app side of
// the boundary, optionally a DDR controller (environment) on the env side.
type world struct {
	sim      *vidi.Simulator
	boundary *vidi.Boundary
	wr       *axi.WriteManager
	rd       *axi.ReadManager
	readBack [][]byte
}

func build(withController bool, seed int64) *world {
	s := vidi.NewSimulator()
	w := &world{sim: s, boundary: vidi.NewBoundary()}

	env := axi.NewFull(s, "ddr.env")
	app := axi.NewFull(s, "ddr.app")

	// The ~13 lines that declare the custom boundary: one Add per channel.
	// The program (scatter/gather engine) is the AXI manager, so AW/W/AR
	// are outputs of the program and B/R are its inputs.
	add := func(name string, e, a *vidi.Channel, dir, _ int) {
		d := vidi.Output
		if dir == 1 {
			d = vidi.Input
		}
		w.boundary.MustAdd(vidi.ChannelInfo{Name: "ddr." + name, Interface: "ddr", Width: e.Width(), Dir: d}, e, a)
	}
	add("AW", env.AW, app.AW, 0, 0)
	add("W", env.W, app.W, 0, 0)
	add("B", env.B, app.B, 1, 0)
	add("AR", env.AR, app.AR, 0, 0)
	add("R", env.R, app.R, 1, 0)

	w.wr = axi.NewWriteManager("sg-writer", app)
	w.rd = axi.NewReadManager("sg-reader", app)
	s.Register(w.wr, w.rd)

	if withController {
		mem := axi.NewMemory(1 << 16)
		sub := axi.NewMemSubordinate("ddr-ctrl", env, mem)
		rng := vidi.NewRand(seed ^ 0xdd4)
		sub.RespDelay = func() int { return 2 + rng.Intn(6) } // DRAM bank jitter
		s.Register(sub)
	}
	return w
}

// program pushes the engine's work: scattered writes then read-back.
func program(w *world, seed int64) {
	rng := vidi.NewRand(seed)
	for i := 0; i < 8; i++ {
		data := make([]byte, 128)
		rng.Read(data)
		addr := uint64(i * 512)
		w.wr.Push(axi.WriteOp{Addr: addr, Data: data})
	}
	for i := 0; i < 8; i++ {
		w.rd.Push(axi.ReadOp{Addr: uint64(i * 512), Beats: 2, Done: func(d []byte, _ uint8) {
			w.readBack = append(w.readBack, d)
		}})
	}
}

func main() {
	const seed = 77

	// ---- Record: program + DDR controller, shim over the DDR boundary. ----
	rec := build(true, seed)
	shim, err := vidi.NewShim(rec.sim, rec.boundary, vidi.ShimOptions{
		Mode: vidi.ModeRecord, ValidateOutputs: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	program(rec, seed)
	done := func() bool { return rec.wr.Idle() && rec.rd.Idle() }
	if _, err := rec.sim.Run(100000, done); err != nil {
		log.Fatal(err)
	}
	tr := shim.Trace()
	fmt.Printf("recorded %d DDR transactions (%d trace bytes) in %d cycles\n",
		tr.TotalTransactions(), tr.SizeBytes(), rec.sim.Cycle())

	// ---- Replay: same program, NO DDR controller. The replayers stand in
	// for it, recreating the recorded responses and orderings. ----
	rep := build(false, seed)
	shim2, err := vidi.NewShim(rep.sim, rep.boundary, vidi.ShimOptions{
		Mode: vidi.ModeReplay, Record: true, ValidateOutputs: true, ReplayTrace: tr,
	})
	if err != nil {
		log.Fatal(err)
	}
	program(rep, seed)
	if _, err := rep.sim.Run(100000, func() bool {
		return shim2.ReplayDone() && rep.wr.Idle() && rep.rd.Idle()
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed in %d cycles without the DDR controller\n", rep.sim.Cycle())

	same := len(rec.readBack) == len(rep.readBack)
	for i := range rec.readBack {
		if !same || !bytes.Equal(rec.readBack[i], rep.readBack[i]) {
			same = false
			break
		}
	}
	fmt.Println("read-back data identical across record and replay:", same)

	report, err := vidi.Validate(tr, shim2.Trace())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("divergence report:", report)
	if !same || !report.Clean() {
		log.Fatal("custom-boundary: replay did not reproduce the DDR traffic")
	}
}
