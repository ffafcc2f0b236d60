package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"vidi/internal/core"
	"vidi/internal/eval"
	"vidi/internal/sim"
	"vidi/internal/trace"
)

// runLoop measures the full record→replay→verify loop back to back on one
// goroutine: R2 record, storage framing, deframing and decode, R3 replay,
// and core.Compare of the replay's validation trace against the recording.
func runLoop(ctx context.Context, rc repConfig) (*repResult, error) {
	res := newRepResult()
	if err := table1(rc.workload, res); err != nil {
		return nil, err
	}
	l := &looper{rc: rc, seed: makePlan(rc.seed, rc.workload, 0, 0).simSeed}
	// Two warm-up loops; the first fixes the outputs every later loop must
	// reproduce and supplies the loop's exact kernel counters.
	for i := range 2 {
		if _, err := l.once(nil, fmt.Sprintf("warm-%d", i)); err != nil {
			return nil, err
		}
	}
	res.Exact["sim.record_evals_per_cycle"] = float64(l.rec.EvalCalls) / float64(l.rec.Cycles)
	res.Exact["sim.replay_evals_per_cycle"] = float64(l.rep.EvalCalls) / float64(l.rep.Cycles)
	res.Exact["sim.record_batched_ratio"] = float64(l.rec.BatchedCycles) / float64(l.rec.Cycles)
	res.Exact["sim.replay_batched_ratio"] = float64(l.rep.BatchedCycles) / float64(l.rep.Cycles)
	res.Exact["core.txns"] = float64(l.txns)
	res.Exact["trace.bytes"] = float64(l.bytes)
	res.Fingerprint = l.fingerprint
	res.Scalars["setup_s"] = time.Since(rc.start).Seconds()

	var tr *tracer
	var stopLag func() float64
	if rc.traced {
		tr = &tracer{}
		stopLag = timerLag(10 * time.Millisecond)
		defer stopLag()
	}
	rt0 := readRuntime()
	t0 := time.Now()
	n, untraced, busy := 0, 0, 0.0
	// At least two loops, so a traced run on a slow host still has one of
	// each kind.
	for ; (n < 2 || time.Since(t0) < rc.measure) && ctx.Err() == nil; n++ {
		// A traced run alternates traced and untraced loops, so the two
		// medians that give the tracing overhead share the host's drift.
		key, lt := "op", (*tracer)(nil)
		if tr != nil && n%2 == 0 {
			key, lt = "op.traced", tr
		}
		d, err := l.once(lt, fmt.Sprintf("loop-%d", n))
		if err != nil {
			return nil, err
		}
		res.Samples[key] = append(res.Samples[key], d)
		if lt == nil {
			untraced++
			busy += d
		}
	}
	// The rates count untraced loops only: a traced loop also runs R1.
	res.saturated(untraced, uint64(untraced)*l.cycles, time.Duration(busy*float64(time.Millisecond)))
	res.Attempted = n
	readRuntime().since(rt0, n, res)
	if tr != nil {
		res.Scalars["bench.gen_lag_ms_max"] = stopLag()
	}
	return res, finish(rc, res, tr, t0)
}

// timerLag starts a goroutine that sleeps until a deadline every period, as
// the serve workloads' arrival generator does, and returns a function that
// stops it, waits for it to end and returns, in milliseconds, the most it
// woke late: how far the loops starve the benchmark's own timers. The
// function may be called more than once.
func timerLag(period time.Duration) func() float64 {
	stop, lag := make(chan struct{}), make(chan time.Duration)
	go func() {
		var most time.Duration
		for due := time.Now().Add(period); ; due = due.Add(period) {
			select {
			case <-stop:
				lag <- most
				return
			case <-time.After(time.Until(due)):
				most = max(most, time.Since(due))
			}
		}
	}()
	return sync.OnceValue(func() float64 {
		close(stop)
		return ms(<-lag)
	})
}

// looper runs loops and checks each one against the first.
type looper struct {
	rc   repConfig
	seed int64

	fingerprint string
	cycles      uint64 // recorded (R2) cycles per loop
	txns        uint64
	bytes       int
	rec, rep    sim.Stats
}

// once runs one loop and returns its duration in milliseconds, excluding
// the native (R1) run a traced loop makes first for sim.native.
func (l *looper) once(tr *tracer, op string) (float64, error) {
	cfg := eval.RunConfig{App: l.rc.app, Scale: l.rc.scale, Seed: l.seed}
	if tr != nil {
		t := time.Now()
		cfg.Cfg = eval.R1
		if _, err := eval.Run(cfg); err != nil {
			return 0, err
		}
		tr.call(0, "sim.native", op, 0, t)
	}
	root := tr.id()
	t0 := time.Now()
	cfg.Cfg = eval.R2
	rec, err := eval.Run(cfg)
	if err != nil {
		return 0, err
	}
	t := tr.call(root, "core.record", op, 0, t0)
	if rec.CheckErr != nil {
		return 0, fmt.Errorf("%w: %s recording fails its golden check: %v", errGate, op, rec.CheckErr)
	}
	frames := rec.Trace.Frames()
	t = tr.call(root, "trace.frames", op, 0, t)
	dec, err := trace.FromFrames(frames)
	if err != nil {
		return 0, fmt.Errorf("%w: %s: recorded frames do not decode: %v", errGate, op, err)
	}
	t = tr.call(root, "trace.decode", op, 0, t)
	if l.rc.mutateReplay != nil {
		if err := l.rc.mutateReplay(dec); err != nil {
			return 0, err
		}
	}
	cfg.Cfg, cfg.ReplayTrace = eval.R3, dec
	rep, err := eval.Run(cfg)
	if err != nil {
		return 0, fmt.Errorf("%w: %s replay: %v", errGate, op, err)
	}
	t = tr.call(root, "core.replay", op, 0, t)
	report, err := core.Compare(rec.Trace, rep.Trace)
	if err != nil {
		return 0, fmt.Errorf("%w: %s compare: %v", errGate, op, err)
	}
	end := tr.call(root, "core.compare", op, 0, t)
	tr.record(root, 0, "bench.op", op, 0, t0, end)

	if !report.Clean() {
		return 0, fmt.Errorf("%w: %s replay diverges: %s", errGate, op, report)
	}
	fp := fmt.Sprintf("%s cycles %d/%d frames %x", l.rc.name, rec.Cycles, rep.Cycles, sha256.Sum256(framesBytes(frames)))
	if l.fingerprint == "" {
		l.fingerprint = fp
		l.cycles = rec.Cycles
		l.txns = rec.Trace.TotalTransactions()
		l.bytes = len(rec.Trace.Bytes())
		l.rec, l.rep = rec.Stats, rep.Stats
	} else if fp != l.fingerprint {
		return 0, fmt.Errorf("%w: %s outputs changed between loops: %s, first loop %s", errGate, op, fp, l.fingerprint)
	}
	return ms(end.Sub(t0)), nil
}

// table1 runs paired R1/R2 runs at the fixed table1Seeds and records the
// paper's Table 1 metrics, averaged over the seeds: record overhead in
// simulated cycles, and trace bytes per transaction.
func table1(w workload, res *repResult) error {
	var overhead, perTxn float64
	for _, seed := range table1Seeds {
		cfg := eval.RunConfig{App: w.app, Scale: w.scale, Seed: seed, Cfg: eval.R1}
		r1, err := eval.Run(cfg)
		if err != nil {
			return err
		}
		cfg.Cfg = eval.R2
		r2, err := eval.Run(cfg)
		if err != nil {
			return err
		}
		if r1.CheckErr != nil || r2.CheckErr != nil {
			return fmt.Errorf("%w: %s seed %d fails its golden check: R1 %v, R2 %v", errGate, w.app, seed, r1.CheckErr, r2.CheckErr)
		}
		overhead += 100 * (float64(r2.Cycles) - float64(r1.Cycles)) / float64(r1.Cycles)
		perTxn += float64(len(r2.Trace.Bytes())) / float64(r2.Trace.TotalTransactions())
	}
	n := float64(len(table1Seeds))
	res.Exact["record_overhead_pct"] = overhead / n
	res.Exact["trace_bytes_per_txn"] = perTxn / n
	return nil
}

// framesBytes flattens storage frames into the byte stream they carry.
func framesBytes(frames [][trace.StoragePacketSize]byte) []byte {
	out := make([]byte, 0, len(frames)*trace.StoragePacketSize)
	for i := range frames {
		out = append(out, frames[i][:]...)
	}
	return out
}
