package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vidi/internal/core"
	"vidi/internal/eval"
	"vidi/internal/serve"
	"vidi/internal/telemetry"
	"vidi/internal/trace"
)

// runServe measures a vidi-serve hosted in this process on a loopback
// listener, with its store under the work directory, default Limits, and
// real fsyncs. Load comes from one client per CPU sharing that many
// connections: first an open-loop phase at the workload's fixed rate,
// timed from each operation's scheduled arrival, then a closed-loop phase
// whose completion rate is the capacity.
func runServe(ctx context.Context, rc repConfig) (*repResult, error) {
	res := newRepResult()
	if err := table1(rc.workload, res); err != nil {
		return nil, err
	}
	clients := runtime.NumCPU()
	open := rc.measure / 2
	p := makePlan(rc.seed, rc.workload, open, clients)
	pool, err := recordPool(rc.workload, p.poolSeeds, res)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(rc.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.workDir, rc.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	h, err := startHost(filepath.Join(dir, "store"), clients)
	if err != nil {
		return nil, err
	}
	defer h.stop()
	s := &serveRep{rc: rc, pool: pool, host: h, clients: clients, ingest: rc.name == "serve-ingest"}

	if !s.ingest {
		// Every recording is committed twice, so compare jobs read two runs.
		if err := s.each(ctx, 2*poolSize, func(i, lane int) error {
			a := arrival{pool: i / 2, tenant: fmt.Sprintf("t%d", i%tenants)}
			return s.session(ctx, a, poolRun(i/2, i%2 == 1), lane, nil, 0)
		}); err != nil {
			return nil, err
		}
	}
	if err := s.each(ctx, 2*clients, func(i, lane int) error {
		_, err := s.run(ctx, p.closed[lane][i/clients], fmt.Sprintf("w-%d", i), lane, nil, time.Now())
		return err
	}); err != nil {
		return nil, err
	}
	res.Scalars["setup_s"] = time.Since(rc.start).Seconds()

	var tr *tracer
	if rc.traced {
		tr = &tracer{}
	}
	s.attempted, s.failed = 0, 0
	rt0 := readRuntime()
	req0 := h.requests.Load()
	t0 := time.Now()
	if err := s.openLoop(ctx, p.arrivals, tr, res); err != nil {
		return nil, err
	}
	done, cycles, elapsed, err := s.closedLoop(ctx, p.closed, rc.measure-open)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = s.attempted, s.failed
	res.saturated(done, cycles, elapsed)
	res.Scalars["serve.requests_per_session"] = float64(h.requests.Load()-req0) / float64(max(s.attempted, 1))
	readRuntime().since(rt0, s.attempted, res)
	if err := h.scrape(ctx, res); err != nil {
		return nil, err
	}
	if tr != nil {
		direct := p.arrivals[:min(directOps, len(p.arrivals))]
		if s.ingest {
			err = s.directIngest(ctx, direct, filepath.Join(dir, "direct"), tr)
		} else {
			err = s.directReplay(ctx, direct, tr, res)
		}
		if err != nil {
			return nil, err
		}
	}
	return res, finish(rc, res, tr, t0)
}

// poolTrace is one recording of the serve workloads' pool.
type poolTrace struct {
	seed   int64
	trace  *trace.Trace
	sha    string // sha256 of trace.Bytes(): what a manifest's BodySHA256 must be
	txns   uint64
	cycles uint64
}

// recordPool records the pool with R2 and notes its exact counters.
func recordPool(w workload, seeds []int64, res *repResult) ([]poolTrace, error) {
	var pool []poolTrace
	var evals, cycles, batched, txns, bytes uint64
	fp := sha256.New()
	for _, seed := range seeds {
		r, err := eval.Run(eval.RunConfig{App: w.app, Scale: w.scale, Seed: seed, Cfg: eval.R2})
		if err != nil {
			return nil, err
		}
		if r.CheckErr != nil {
			return nil, fmt.Errorf("%w: pool recording seed %d fails its golden check: %v", errGate, seed, r.CheckErr)
		}
		body := r.Trace.Bytes()
		sum := sha256.Sum256(body)
		pool = append(pool, poolTrace{seed: seed, trace: r.Trace, sha: hex.EncodeToString(sum[:]),
			txns: r.Trace.TotalTransactions(), cycles: r.Cycles})
		fp.Write(sum[:])
		evals += r.Stats.EvalCalls
		cycles += r.Stats.Cycles
		batched += r.Stats.BatchedCycles
		txns += r.Trace.TotalTransactions()
		bytes += uint64(len(body))
	}
	n := float64(len(seeds))
	res.Exact["sim.record_evals_per_cycle"] = float64(evals) / float64(cycles)
	res.Exact["sim.record_batched_ratio"] = float64(batched) / float64(cycles)
	res.Exact["core.txns"] = float64(txns) / n
	res.Exact["trace.bytes"] = float64(bytes) / n
	res.Fingerprint = fmt.Sprintf("%s pool %x", w.name, fp.Sum(nil))
	return pool, nil
}

// poolRun names the committed run of pool recording i; serve-replay
// commits each recording twice.
func poolRun(i int, second bool) string {
	if second {
		return fmt.Sprintf("p%02db", i)
	}
	return fmt.Sprintf("p%02da", i)
}

// host is a vidi-serve running on a loopback listener in this process,
// and the HTTP client that load uses to reach it.
type host struct {
	store    *serve.Store
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	cl       *serve.Client
	requests atomic.Int64
}

func startHost(root string, conns int) (*host, error) {
	store, _, err := serve.OpenStore(root, serve.StoreOptions{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &host{store: store, srv: serve.NewServer(store, serve.ServerOptions{}), served: make(chan error, 1)}
	h.hs = &http.Server{Handler: h.srv.Handler()}
	go func() { h.served <- h.hs.Serve(ln) }()
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxConnsPerHost = conns
	base.MaxIdleConnsPerHost = conns
	h.cl = &serve.Client{
		BaseURL:       "http://" + ln.Addr().String(),
		HTTP:          &http.Client{Transport: countingTransport{base: base, requests: &h.requests}},
		SegmentFrames: segmentFrames,
	}
	return h, nil
}

// stop shuts the listener down, waits for in-flight requests, then drains
// the job pool.
func (h *host) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx) // a timeout leaves nothing to clean up that Close does not
	<-h.served
	h.srv.Close()
	h.cl.HTTP.CloseIdleConnections()
}

// scrape copies the service's own counters from /metrics.
func (h *host) scrape(ctx context.Context, res *repResult) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.cl.BaseURL+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := h.cl.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	snap, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	for name, family := range map[string]string{
		"serve.segments_total":          "vidi_serve_segments_total",
		"serve.store_faults_total":      "vidi_serve_store_faults_total",
		"serve.admission_rejects_total": "vidi_serve_admission_rejects_total",
		"serve.jobs_failed_total":       "vidi_serve_jobs_failed_total",
		"serve.compression_ratio":       "vidi_serve_compression_ratio",
	} {
		res.Scalars[name] = snap.Total(family)
	}
	return nil
}

// failKey carries an operation's failure flag through request contexts.
type failKey struct{}

// countingTransport counts requests and flags the operation a request
// belongs to when the request fails in transport or with a 5xx, even if
// the client library retries it to success.
type countingTransport struct {
	base     http.RoundTripper
	requests *atomic.Int64
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	resp, err := t.base.RoundTrip(req)
	if err != nil || resp.StatusCode >= 500 {
		if f, ok := req.Context().Value(failKey{}).(*atomic.Bool); ok {
			f.Store(true)
		}
	}
	return resp, err
}

// serveRep is one serve repetition's load generator.
type serveRep struct {
	rc      repConfig
	pool    []poolTrace
	host    *host
	clients int
	ingest  bool

	mu                sync.Mutex
	attempted, failed int
}

// each runs f(i, lane) for i in [0, n) on one goroutine per client and
// returns the first error.
func (s *serveRep) each(ctx context.Context, n int, f func(i, lane int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	errs := make(chan error, s.clients)
	for lane := range s.clients {
		go func() {
			for i := int(next.Add(1) - 1); i < n && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				if err := f(i, lane); err != nil {
					cancel()
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for range s.clients {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// run executes one operation as client lane and returns its latency in
// milliseconds from due, its scheduled start. An operation that fails, or
// whose requests fail on the way, counts as failed and has no latency; an
// error is returned only when an output is wrong.
func (s *serveRep) run(ctx context.Context, a arrival, id string, lane int, tr *tracer, due time.Time) (float64, error) {
	failed := new(atomic.Bool)
	ctx = context.WithValue(ctx, failKey{}, failed)
	root := tr.id()
	tr.call(root, "bench.backlog", id, lane, due)
	var err error
	if s.ingest {
		err = s.session(ctx, a, id, lane, tr, root)
	} else {
		err = s.job(ctx, a, id, lane, tr, root)
	}
	end := time.Now()
	tr.record(root, 0, "bench.op", id, lane, due, end)
	s.mu.Lock()
	s.attempted++
	ok := err == nil && !failed.Load()
	if !ok {
		s.failed++
	}
	s.mu.Unlock()
	switch {
	case errors.Is(err, errGate):
		return 0, err
	case !ok:
		return -1, nil
	}
	return ms(end.Sub(due)), nil
}

// session uploads one pool recording as run id: open, one put_segment per
// segmentFrames frames, commit. The manifest must vouch for exactly the
// bytes uploaded.
func (s *serveRep) session(ctx context.Context, a arrival, id string, lane int, tr *tracer, root int) error {
	pt := s.pool[a.pool]
	cl := s.host.cl
	t := time.Now()
	frames := pt.trace.Frames()
	t = tr.call(root, "trace.frames", id, lane, t)
	sess, err := cl.OpenSession(ctx, id, serve.RunMeta{Tenant: a.tenant, App: s.rc.app, Scale: s.rc.scale, Seed: pt.seed})
	if err != nil {
		return err
	}
	tr.call(root, "serve.open_session", id, lane, t)
	for off := 0; off < len(frames); off += segmentFrames {
		seg := framesBytes(frames[off:min(off+segmentFrames, len(frames))])
		t = time.Now()
		if _, err := cl.PutSegment(ctx, sess.SessionID, uint32(off), seg); err != nil {
			_ = cl.Abort(ctx, sess.SessionID) // frees the tenant's session slot; the failure is already counted
			return err
		}
		tr.call(root, "serve.put_segment", id, lane, t)
	}
	t = time.Now()
	m, err := cl.Commit(ctx, sess.SessionID)
	if err != nil {
		_ = cl.Abort(ctx, sess.SessionID)
		return err
	}
	tr.call(root, "serve.commit", id, lane, t)
	return s.checkManifest(id, m, pt)
}

func (s *serveRep) checkManifest(id string, m *serve.Manifest, pt poolTrace) error {
	if s.rc.mutateManifest != nil {
		s.rc.mutateManifest(m)
	}
	if m.BodySHA256 != pt.sha || !m.Replayable || m.Transactions != pt.txns || m.UploadGapFrames != 0 {
		return fmt.Errorf("%w: run %s: manifest body %s (uploaded %s), replayable %v, %d transactions (uploaded %d), %d gap frames",
			errGate, id, m.BodySHA256, pt.sha, m.Replayable, m.Transactions, pt.txns, m.UploadGapFrames)
	}
	return nil
}

// job submits a replay job, or a compare job of a recording's two commits,
// and waits for its verdict, re-issuing the wait when the server's request
// deadline ends a long poll first.
func (s *serveRep) job(ctx context.Context, a arrival, id string, lane int, tr *tracer, root int) error {
	cl := s.host.cl
	kind, run, ref := serve.JobReplay, poolRun(a.pool, false), ""
	if a.compare {
		kind, run, ref = serve.JobCompare, poolRun(a.pool, true), poolRun(a.pool, false)
	}
	t := time.Now()
	j, err := cl.SubmitJob(ctx, kind, run, ref)
	if err != nil {
		return err
	}
	tr.call(root, "serve.submit_job", id, lane, t)
	for {
		t = time.Now()
		done, err := cl.WaitJob(ctx, j.ID)
		tr.call(root, "serve.wait_job", id, lane, t)
		var ae *serve.APIError
		if errors.As(err, &ae) && ae.Status == http.StatusGatewayTimeout && ctx.Err() == nil {
			continue
		}
		if err != nil {
			return err
		}
		return s.checkJob(id, done)
	}
}

func (s *serveRep) checkJob(id string, j *serve.Job) error {
	if s.rc.mutateJob != nil {
		s.rc.mutateJob(j)
	}
	if j.Status != "done" || j.Clean == nil || !*j.Clean || j.Divergences != 0 {
		return fmt.Errorf("%w: %s: job %s ended %s (%s), clean %v, %d divergences",
			errGate, id, j.ID, j.Status, j.Error, j.Clean != nil && *j.Clean, j.Divergences)
	}
	return nil
}

// openLoop issues arrivals on their schedule, whether or not earlier ones
// have finished, to the clients through one queue. A traced run traces
// every other arrival.
func (s *serveRep) openLoop(ctx context.Context, arrivals []arrival, tr *tracer, res *repResult) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	queue := make(chan int, len(arrivals)) // holds every arrival, so the generator never waits on a client
	start := time.Now()
	var lag time.Duration
	go func() {
		defer close(queue)
		for i, a := range arrivals {
			due := start.Add(a.at)
			time.Sleep(time.Until(due))
			lag = max(lag, time.Since(due))
			queue <- i
		}
	}()
	var wg sync.WaitGroup
	lat := make([]float64, len(arrivals))
	errs := make([]error, s.clients)
	for lane := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if ctx.Err() != nil {
					continue
				}
				a, optr := arrivals[i], tr
				if i%2 == 1 {
					optr = nil
				}
				d, err := s.run(ctx, a, fmt.Sprintf("o-%d", i), lane, optr, start.Add(a.at))
				if err != nil {
					errs[lane] = err
					cancel()
				}
				lat[i] = d
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, d := range lat {
		key := "op"
		if tr != nil && i%2 == 0 {
			key = "op.traced"
		}
		if d >= 0 {
			res.Samples[key] = append(res.Samples[key], d)
		}
	}
	res.Scalars["bench.gen_lag_ms_max"] = ms(lag)
	return nil
}

// closedLoop runs each client's operations back to back for d and returns
// how many completed, the simulated cycles their recordings carry, and
// the phase's length.
func (s *serveRep) closedLoop(ctx context.Context, ops [][]arrival, d time.Duration) (int, uint64, time.Duration, error) {
	var mu sync.Mutex
	done, cycles := 0, uint64(0)
	var wg sync.WaitGroup
	errs := make([]error, s.clients)
	start := time.Now()
	for lane := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; time.Since(start) < d && ctx.Err() == nil; k++ {
				a := ops[lane][k%len(ops[lane])]
				lat, err := s.run(ctx, a, fmt.Sprintf("c-%d-%d", lane, k), lane, nil, time.Now())
				if err != nil {
					errs[lane] = err
					return
				}
				if lat >= 0 {
					mu.Lock()
					done++
					cycles += s.pool[a.pool].cycles
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return done, cycles, time.Since(start), errors.Join(errs...)
}

// directIngest replays traced arrivals' uploads straight into a fresh
// serve.Store, without HTTP, timing the store's write path call by call:
// segment writes, commit-time read-back, decode, and the manifest commit.
func (s *serveRep) directIngest(ctx context.Context, arrivals []arrival, root string, tr *tracer) error {
	st, _, err := serve.OpenStore(root, serve.StoreOptions{})
	if err != nil {
		return err
	}
	for i, a := range arrivals {
		pt, id, op := s.pool[a.pool], fmt.Sprintf("d-%d", i), tr.id()
		frames := pt.trace.Frames()
		t0 := time.Now()
		w, err := st.Begin(ctx, id, serve.RunMeta{Tenant: a.tenant, App: s.rc.app, Scale: s.rc.scale, Seed: pt.seed})
		if err != nil {
			return err
		}
		for off := 0; off < len(frames); off += segmentFrames {
			t := time.Now()
			if _, _, err := w.PutSegment(ctx, framesBytes(frames[off:min(off+segmentFrames, len(frames))]), uint32(off)); err != nil {
				return err
			}
			tr.call(op, "serve.store.put_segment", id, 0, t)
		}
		t := time.Now()
		body, err := w.ReadBack(ctx)
		if err != nil {
			return err
		}
		t = tr.call(op, "serve.store.readback", id, 0, t)
		dec, err := trace.FromFrames(bytesFrames(body))
		if err != nil {
			return fmt.Errorf("%w: %s: read-back does not decode: %v", errGate, id, err)
		}
		t = tr.call(op, "trace.decode", id, 0, t)
		sum := sha256.Sum256(dec.Bytes())
		m, err := w.Commit(ctx, serve.TraceStats{
			Transactions: dec.TotalTransactions(), Unrecorded: dec.UnrecordedTransactions(),
			LossyPackets: uint64(dec.LossyPackets()), BodySHA256: hex.EncodeToString(sum[:]), Replayable: true,
		})
		if err != nil {
			return err
		}
		end := tr.call(op, "serve.store.commit", id, 0, t)
		tr.record(op, 0, "bench.direct", id, 0, t0, end)
		if err := s.checkManifest(id, m, pt); err != nil {
			return err
		}
	}
	return nil
}

// directReplay runs traced arrivals' jobs straight against the service's
// store and the job code, without HTTP or the queue: verified frame reads,
// decode, then eval.ReplayVerify or core.Compare.
func (s *serveRep) directReplay(ctx context.Context, arrivals []arrival, tr *tracer, res *repResult) error {
	var evals, cycles, batched uint64
	for i, a := range arrivals {
		id, op := fmt.Sprintf("d-%d", i), tr.id()
		t0 := time.Now()
		read := func(run string) (*trace.Trace, *serve.Manifest, error) {
			t := time.Now()
			frames, m, err := s.host.store.ReadFrames(ctx, run)
			if err != nil {
				return nil, nil, err
			}
			t = tr.call(op, "serve.store.read_frames", id, 0, t)
			dec, err := trace.FromFrames(frames)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: run %s does not decode: %v", errGate, run, err)
			}
			tr.call(op, "trace.decode", id, 0, t)
			if sum := sha256.Sum256(dec.Bytes()); hex.EncodeToString(sum[:]) != m.BodySHA256 {
				return nil, nil, fmt.Errorf("%w: run %s decodes to a body its manifest does not vouch for", errGate, run)
			}
			return dec, m, nil
		}
		ref, m, err := read(poolRun(a.pool, false))
		if err != nil {
			return err
		}
		var rep *core.Report
		if a.compare {
			val, _, err := read(poolRun(a.pool, true))
			if err != nil {
				return err
			}
			t := time.Now()
			if rep, err = core.Compare(ref, val); err != nil {
				return err
			}
			tr.call(op, "serve.jobs.compare", id, 0, t)
		} else {
			t := time.Now()
			var r3 *eval.RunResult
			if rep, r3, err = eval.ReplayVerify(m.App, m.Scale, m.Seed, ref, 0); err != nil {
				return fmt.Errorf("%w: %s replay: %v", errGate, id, err)
			}
			tr.call(op, "serve.jobs.replay_verify", id, 0, t)
			evals += r3.Stats.EvalCalls
			cycles += r3.Stats.Cycles
			batched += r3.Stats.BatchedCycles
		}
		tr.record(op, 0, "bench.direct", id, 0, t0, time.Now())
		if !rep.Clean() {
			return fmt.Errorf("%w: %s diverges: %s", errGate, id, rep)
		}
	}
	if cycles > 0 {
		res.Scalars["sim.replay_evals_per_cycle"] = float64(evals) / float64(cycles)
		res.Scalars["sim.replay_batched_ratio"] = float64(batched) / float64(cycles)
	}
	return nil
}

// bytesFrames reslices a raw stream into storage frames.
func bytesFrames(b []byte) [][trace.StoragePacketSize]byte {
	out := make([][trace.StoragePacketSize]byte, len(b)/trace.StoragePacketSize)
	for i := range out {
		copy(out[i][:], b[i*trace.StoragePacketSize:])
	}
	return out
}
