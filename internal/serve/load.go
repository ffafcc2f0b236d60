package serve

// vidi-load's core: an open-loop load generator for the record/replay
// service. Sessions arrive on a seeded Poisson process — arrivals never
// wait for completions, so the harness measures the service under offered
// load, not under the generator's own backpressure. Each session is one
// tenant workflow (record, replay, compare, or a degraded upload), every
// HTTP request carries a deterministic X-Vidi-Request-Id, and the report
// closes the loop: client-side HDR latency quantiles per endpoint, an
// error budget, divergence accounting, and the overlap between the
// client's slowest requests and the server's /v1/slow exemplars.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vidi/internal/eval"
	"vidi/internal/sim"
	"vidi/internal/telemetry"
	"vidi/internal/trace"
)

// Session kinds in the load mix.
const (
	LoadRecord   = "record"
	LoadReplay   = "replay"
	LoadCompare  = "compare"
	LoadDegraded = "degraded"
)

// LoadMix weights the session kinds (zero value selects 6/2/1/1).
type LoadMix struct {
	Record   int `json:"record"`
	Replay   int `json:"replay"`
	Compare  int `json:"compare"`
	Degraded int `json:"degraded"`
}

func (m LoadMix) orDefault() LoadMix {
	if m.Record+m.Replay+m.Compare+m.Degraded == 0 {
		return LoadMix{Record: 6, Replay: 2, Compare: 1, Degraded: 1}
	}
	return m
}

// pick draws a session kind from the mix weights.
func (m LoadMix) pick(rng *rand.Rand) string {
	total := m.Record + m.Replay + m.Compare + m.Degraded
	n := rng.Intn(total)
	switch {
	case n < m.Record:
		return LoadRecord
	case n < m.Record+m.Replay:
		return LoadReplay
	case n < m.Record+m.Replay+m.Compare:
		return LoadCompare
	}
	return LoadDegraded
}

// LoadOptions configures one load run.
type LoadOptions struct {
	// URL targets a live service. "" self-hosts one on a loopback
	// listener (uncapped admission quotas) and tears it down after.
	URL string
	// Root is the self-hosted store directory ("" = a temp dir).
	Root string
	// Sessions is the total session count (default 64).
	Sessions int
	// MinConcurrent, when > 0, holds early sessions at a rendezvous
	// barrier until that many are simultaneously active, guaranteeing the
	// reported peak concurrency (sessions keep arriving open-loop while
	// the barrier fills). A 30s fallback releases the barrier if the run
	// is too small to ever fill it.
	MinConcurrent int
	// Rate is the mean Poisson arrival rate in sessions/second
	// (default 500).
	Rate float64
	// Seed drives arrivals, the mix, and request ids.
	Seed int64
	// App/Scale/TraceSeed select the recorded workload (defaults
	// "dma-irq"/1/Seed).
	App       string
	Scale     int
	TraceSeed int64
	// SegmentFrames sizes upload segments (default 8 — small segments
	// make many put_segment requests, which is the point).
	SegmentFrames int
	// SlowK is how many of the client's slowest requests to correlate
	// against the server's /v1/slow exemplars (default 8).
	SlowK int
	// Mix weights the session kinds.
	Mix LoadMix
	// Tenants spreads sessions across this many tenant names (default 8).
	Tenants int
}

func (o *LoadOptions) setDefaults() {
	if o.Sessions <= 0 {
		o.Sessions = 64
	}
	if o.Rate <= 0 {
		o.Rate = 500
	}
	if o.App == "" {
		o.App = "dma-irq"
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.TraceSeed == 0 {
		o.TraceSeed = o.Seed
	}
	if o.SegmentFrames <= 0 {
		o.SegmentFrames = 8
	}
	if o.SlowK <= 0 {
		o.SlowK = 8
	}
	if o.Tenants <= 0 {
		o.Tenants = 8
	}
	o.Mix = o.Mix.orDefault()
}

// EndpointStats is one endpoint's client-side latency/error summary.
type EndpointStats struct {
	Endpoint string  `json:"endpoint"`
	Count    uint64  `json:"count"`
	Errors   uint64  `json:"errors"`
	MeanMS   float64 `json:"mean_ms"`
	P50MS    float64 `json:"p50_ms"`
	P90MS    float64 `json:"p90_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
	P999MS   float64 `json:"p999_ms"`
}

// LoadReport is the JSON report a load run emits (vidi-load -out).
type LoadReport struct {
	Seed           int64   `json:"seed"`
	URL            string  `json:"url"`
	SelfHosted     bool    `json:"self_hosted"`
	Sessions       int     `json:"sessions"`
	PeakConcurrent int     `json:"peak_concurrent"`
	DurationMS     float64 `json:"duration_ms"`
	Requests       uint64  `json:"requests"`
	RequestsPerSec float64 `json:"requests_per_sec"`

	// Error budget: client-visible request failures (transport errors and
	// 5xx responses) over all requests. 4xx rejections the scenarios
	// expect (admission, degraded-run job submits) are not failures.
	ErrorCount uint64  `json:"error_count"`
	ErrorRatio float64 `json:"error_ratio"`

	// Session outcomes.
	Recorded       int    `json:"recorded"`
	Replayed       int    `json:"replayed"`
	Compared       int    `json:"compared"`
	Degraded       int    `json:"degraded"`
	FailedSessions int    `json:"failed_sessions"`
	Divergences    int    `json:"divergences"`
	GapFrames      uint64 `json:"gap_frames"`

	// CompressionRatio is raw/stored bytes from a committed manifest.
	CompressionRatio float64 `json:"compression_ratio,omitempty"`

	// Correlation between the server's /v1/slow exemplar ring and the
	// client's request records: SlowChecked exemplars carried this run's
	// ids, SlowCorrelated of them traced back to a client-side record of
	// the same endpoint with a consistent duration.
	SlowChecked    int `json:"slow_checked"`
	SlowCorrelated int `json:"slow_correlated"`

	// SlowestRequests are the client's slowest requests by observed
	// latency, ids included, for cross-referencing against /v1/slow.
	SlowestRequests []SlowRequest `json:"slowest_requests,omitempty"`

	Endpoints []EndpointStats `json:"endpoints"`
	Errors    []string        `json:"errors,omitempty"`
}

// classifyEndpoint maps a client request to the server's endpoint metric
// name, so the load report's rows line up with /metrics series.
func classifyEndpoint(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case path == "/metrics":
		return "metrics"
	case path == "/healthz":
		return "healthz"
	case len(parts) >= 1 && parts[0] != "v1":
		return "unmatched"
	}
	parts = parts[1:]
	switch {
	case len(parts) == 1 && parts[0] == "sessions" && method == http.MethodPost:
		return "open_session"
	case len(parts) == 3 && parts[0] == "sessions" && parts[2] == "segments":
		return "put_segment"
	case len(parts) == 3 && parts[0] == "sessions" && parts[2] == "gap":
		return "mark_gap"
	case len(parts) == 3 && parts[0] == "sessions" && parts[2] == "commit":
		return "commit"
	case len(parts) == 2 && parts[0] == "sessions" && method == http.MethodDelete:
		return "abort"
	case len(parts) == 1 && parts[0] == "runs":
		return "list_runs"
	case len(parts) == 2 && parts[0] == "runs":
		return "get_run"
	case len(parts) == 1 && parts[0] == "jobs" && method == http.MethodPost:
		return "submit_job"
	case len(parts) == 1 && parts[0] == "jobs":
		return "list_jobs"
	case len(parts) == 2 && parts[0] == "jobs":
		return "get_job"
	case len(parts) == 1 && parts[0] == "recovery":
		return "recovery"
	case len(parts) == 1 && parts[0] == "slow":
		return "slow"
	}
	return "unmatched"
}

// loadEndpoint is one endpoint's client-side accumulator.
type loadEndpoint struct {
	hist   telemetry.QuantileHistogram
	count  uint64
	errors uint64
}

// clientReq is the client-side record of one issued request, indexed by
// request id so server-side slow exemplars can be traced back.
type clientReq struct {
	Endpoint   string
	Status     int
	DurationMS float64
}

// loadTransport instruments every request: a deterministic request id
// (unless the caller already set one), per-endpoint latency into a
// quantile histogram, the error budget, an id-indexed record of every
// request (the server-exemplar correlation source), and a client-side
// slowest-request ring for the report.
type loadTransport struct {
	base   http.RoundTripper
	prefix string
	n      atomic.Uint64

	mu         sync.Mutex
	byEndpoint map[string]*loadEndpoint
	byID       map[string]clientReq
	slow       *slowRing
}

func newLoadTransport(seed int64, slowCap int) *loadTransport {
	// The default transport keeps 2 idle conns per host — at load-test
	// concurrency that melts into connection churn and ephemeral-port
	// exhaustion. Keep enough idle connections for the fleet to reuse.
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConns = 1024
	base.MaxIdleConnsPerHost = 1024
	return &loadTransport{
		base:       base,
		prefix:     fmt.Sprintf("load-%d", seed),
		byEndpoint: map[string]*loadEndpoint{},
		byID:       map[string]clientReq{},
		slow:       newSlowRing(slowCap),
	}
}

// RoundTrip implements http.RoundTripper.
//
//lint:detaudit wall-clock here measures client-observed request latency for the load report; nothing recorded or replayed depends on it
func (t *loadTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := req.Header.Get("X-Vidi-Request-Id")
	if id == "" {
		id = fmt.Sprintf("%s-%d", t.prefix, t.n.Add(1))
		req.Header.Set("X-Vidi-Request-Id", id)
	}
	ep := classifyEndpoint(req.Method, req.URL.Path)
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	dur := time.Since(t0)

	status := 0
	if resp != nil {
		status = resp.StatusCode
	}
	failed := err != nil || status >= 500
	ms := float64(dur) / float64(time.Millisecond)
	t.mu.Lock()
	e := t.byEndpoint[ep]
	if e == nil {
		e = &loadEndpoint{}
		t.byEndpoint[ep] = e
	}
	e.hist.Observe(dur.Seconds())
	e.count++
	if failed {
		e.errors++
	}
	t.byID[id] = clientReq{Endpoint: ep, Status: status, DurationMS: ms}
	t.mu.Unlock()
	t.slow.note(SlowRequest{
		RequestID:  id,
		Endpoint:   ep,
		Status:     status,
		DurationMS: ms,
	})
	return resp, err
}

// lookup traces a request id back to the client-side record.
func (t *loadTransport) lookup(id string) (clientReq, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.byID[id]
	return c, ok
}

// stats snapshots the per-endpoint rows, totals, and top slow ids.
func (t *loadTransport) stats() (rows []EndpointStats, total, errs uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.byEndpoint))
	for n := range t.byEndpoint {
		names = append(names, n)
	}
	sort.Strings(names)
	toMS := func(s float64) float64 { return s * 1000 }
	for _, n := range names {
		e := t.byEndpoint[n]
		mean := 0.0
		if e.hist.Count() > 0 {
			mean = e.hist.Sum() / float64(e.hist.Count())
		}
		rows = append(rows, EndpointStats{
			Endpoint: n,
			Count:    e.count,
			Errors:   e.errors,
			MeanMS:   toMS(mean),
			P50MS:    toMS(e.hist.Quantile(0.5)),
			P90MS:    toMS(e.hist.Quantile(0.9)),
			P95MS:    toMS(e.hist.Quantile(0.95)),
			P99MS:    toMS(e.hist.Quantile(0.99)),
			P999MS:   toMS(e.hist.Quantile(0.999)),
		})
		total += e.count
		errs += e.errors
	}
	return rows, total, errs
}

// runPool shares committed run ids between recorders and the
// replay/compare sessions that need one.
type runPool struct {
	mu   sync.Mutex
	runs []string
}

func (p *runPool) add(id string) {
	p.mu.Lock()
	p.runs = append(p.runs, id)
	p.mu.Unlock()
}

func (p *runPool) pick(rng *rand.Rand) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.runs) == 0 {
		return ""
	}
	return p.runs[rng.Intn(len(p.runs))]
}

// loadSession is the per-session deterministic state, drawn up front so
// goroutine scheduling cannot perturb the workload shape.
type loadSession struct {
	idx     int
	kind    string
	tenant  string
	arrival time.Duration
	seed    int64
}

// barrier is the one-shot MinConcurrent rendezvous.
type barrier struct {
	need    int
	active  atomic.Int64
	peak    atomic.Int64
	release chan struct{}
	once    sync.Once
}

func newBarrier(need int) *barrier {
	return &barrier{need: need, release: make(chan struct{})}
}

// enter marks one session active, updating the peak; when the rendezvous
// fills, every waiter is released at once.
func (b *barrier) enter() {
	cur := b.active.Add(1)
	for {
		p := b.peak.Load()
		if cur <= p || b.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	if b.need > 0 && cur >= int64(b.need) {
		b.once.Do(func() { close(b.release) })
	}
}

// wait blocks until the rendezvous fills (or the fallback timeout fires:
// a run smaller than MinConcurrent must still finish).
//
//lint:detaudit the fallback timer only stops an underfilled rendezvous from deadlocking the harness; measurements and recorded state are unaffected
func (b *barrier) wait(ctx context.Context, fallback time.Duration) {
	if b.need <= 0 {
		return
	}
	t := time.NewTimer(fallback)
	defer t.Stop()
	select {
	case <-b.release:
	case <-t.C:
	case <-ctx.Done():
	}
}

func (b *barrier) leave() { b.active.Add(-1) }

// RunLoad executes one open-loop load run and returns its report. With
// opts.URL == "" it self-hosts a service on a loopback listener with
// uncapped quotas, which makes the harness a single-command smoke test.
//
//lint:detaudit wall-clock here paces open-loop arrivals and times the run for the report; the service's recorded runs and replay verdicts stay seed-deterministic
func RunLoad(ctx context.Context, opts LoadOptions) (*LoadReport, error) {
	opts.setDefaults()

	url := opts.URL
	var ls *liveServer
	if url == "" {
		root := opts.Root
		if root == "" {
			dir, err := os.MkdirTemp("", "vidi-load-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			root = dir
		}
		var err error
		ls, err = startLiveServer(root, StoreOptions{JitterSeed: opts.Seed}, Limits{
			MaxSessionsPerTenant: -1,
			MaxOpenSessions:      -1,
			// The job queue backs a buffered channel, so "unlimited" must
			// stay a finite allocation: room for every session to queue one.
			MaxQueuedJobs: opts.Sessions + 16,
			Workers:       8,
			// A full-fleet arrival storm queues fsync-bound uploads well
			// past the service's 30s default; the harness measures that
			// queueing rather than timing it out.
			RequestTimeout: 60 * time.Second,
		}, nil)
		if err != nil {
			return nil, err
		}
		defer ls.stop()
		url = ls.url
	}

	// One recorded workload shared by every session: the service is what
	// is under test, not the simulator.
	rec, err := eval.Run(eval.RunConfig{App: opts.App, Scale: opts.Scale, Seed: opts.TraceSeed, Cfg: eval.R2})
	if err != nil {
		return nil, fmt.Errorf("load: recording workload: %w", err)
	}
	if rec.CheckErr != nil {
		return nil, fmt.Errorf("load: workload failed golden check: %w", rec.CheckErr)
	}
	tr := rec.Trace

	transport := newLoadTransport(opts.Seed, opts.SlowK)
	httpc := &http.Client{Transport: transport}
	newClient := func() *Client {
		return &Client{BaseURL: url, HTTP: httpc, SegmentFrames: opts.SegmentFrames}
	}

	// Seed the committed-run pool so replay/compare sessions that arrive
	// first have something to chew on.
	pool := &runPool{}
	baseRun := fmt.Sprintf("load-%d-base", opts.Seed)
	base := newClient()
	sess, err := base.OpenSession(ctx, baseRun, RunMeta{
		Tenant: "load-t0", App: opts.App, Scale: opts.Scale, Seed: opts.TraceSeed})
	if err != nil {
		return nil, fmt.Errorf("load: base session: %w", err)
	}
	if _, err := base.UploadTrace(ctx, sess.SessionID, tr); err != nil {
		return nil, fmt.Errorf("load: base upload: %w", err)
	}
	baseM, err := base.Commit(ctx, sess.SessionID)
	if err != nil {
		return nil, fmt.Errorf("load: base commit: %w", err)
	}
	pool.add(baseRun)

	// Draw the whole workload up front from one seeded stream: arrival
	// offsets (Poisson interarrivals), kinds, tenants, per-session seeds.
	rng := sim.NewRand(opts.Seed)
	sessions := make([]loadSession, opts.Sessions)
	var at time.Duration
	for i := range sessions {
		at += time.Duration(rng.ExpFloat64() / opts.Rate * float64(time.Second))
		sessions[i] = loadSession{
			idx:     i,
			kind:    opts.Mix.pick(rng),
			tenant:  fmt.Sprintf("load-t%d", rng.Intn(opts.Tenants)),
			arrival: at,
			seed:    rng.Int63(),
		}
	}

	bar := newBarrier(opts.MinConcurrent)
	results := make([]sessionResult, opts.Sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sessions {
		wg.Add(1)
		go func(s loadSession) {
			defer wg.Done()
			sleepUntil(ctx, start, s.arrival)
			bar.enter()
			bar.wait(ctx, 30*time.Second)
			results[s.idx] = runSession(ctx, s, opts, newClient(), tr, pool)
			bar.leave()
		}(sessions[i])
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Correlate the server's slow-request exemplars back to the client:
	// every exemplar carrying one of our ids must trace to a client-side
	// record of the same endpoint whose client-observed duration is at
	// least the server-side handling time (clients see handling plus the
	// wire, never less).
	serverSlow := fetchServerSlow(ctx, httpc, url)
	checked, correlated := 0, 0
	for _, e := range serverSlow {
		if !strings.HasPrefix(e.RequestID, transport.prefix) {
			continue
		}
		checked++
		if c, ok := transport.lookup(e.RequestID); ok &&
			c.Endpoint == e.Endpoint && c.DurationMS+1.0 >= e.DurationMS {
			correlated++
		}
	}
	clientSlow := transport.slow.list()
	if len(clientSlow) > opts.SlowK {
		clientSlow = clientSlow[:opts.SlowK]
	}

	rows, total, errs := transport.stats()
	rep := &LoadReport{
		Seed:             opts.Seed,
		URL:              url,
		SelfHosted:       ls != nil,
		Sessions:         opts.Sessions,
		PeakConcurrent:   int(bar.peak.Load()),
		DurationMS:       float64(elapsed) / float64(time.Millisecond),
		Requests:         total,
		ErrorCount:       errs,
		CompressionRatio: baseM.CompressionRatio,
		SlowChecked:      checked,
		SlowCorrelated:   correlated,
		SlowestRequests:  clientSlow,
		Endpoints:        rows,
	}
	if elapsed > 0 {
		rep.RequestsPerSec = float64(total) / elapsed.Seconds()
	}
	if total > 0 {
		rep.ErrorRatio = float64(errs) / float64(total)
	}
	for _, r := range results {
		switch {
		case r.err != nil:
			rep.FailedSessions++
			if len(rep.Errors) < 16 {
				rep.Errors = append(rep.Errors, r.err.Error())
			}
		case r.kind == LoadRecord:
			rep.Recorded++
		case r.kind == LoadReplay:
			rep.Replayed++
		case r.kind == LoadCompare:
			rep.Compared++
		case r.kind == LoadDegraded:
			rep.Degraded++
		}
		rep.Divergences += r.divergences
		rep.GapFrames += r.gapFrames
	}
	return rep, nil
}

// sleepUntil paces one arrival against the run's start instant.
//
//lint:detaudit arrival pacing is load-generator timing, not simulation time; cancellation just abandons the remaining wait
func sleepUntil(ctx context.Context, start time.Time, at time.Duration) {
	d := at - time.Since(start)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

type sessionResult struct {
	kind        string
	err         error
	divergences int
	gapFrames   uint64
}

// runSession executes one session's workflow and audits it for silent
// divergence: every committed manifest is checked against the source
// trace, every job verdict must be clean, every degraded upload must
// surface as a declared, unreplayable gap.
func runSession(ctx context.Context, s loadSession, opts LoadOptions, cl *Client, tr *trace.Trace, pool *runPool) sessionResult {
	res := sessionResult{kind: s.kind}
	rng := sim.NewRand(s.seed)
	meta := RunMeta{Tenant: s.tenant, App: opts.App, Scale: opts.Scale, Seed: opts.TraceSeed}
	runID := fmt.Sprintf("load-%d-s%04d", opts.Seed, s.idx)

	switch s.kind {
	case LoadRecord:
		sess, err := cl.OpenSession(ctx, runID, meta)
		if err != nil {
			res.err = fmt.Errorf("session %d open: %w", s.idx, err)
			return res
		}
		up, err := cl.UploadTrace(ctx, sess.SessionID, tr)
		if err != nil {
			res.err = fmt.Errorf("session %d upload: %w", s.idx, err)
			return res
		}
		m, err := cl.Commit(ctx, sess.SessionID)
		if err != nil {
			res.err = fmt.Errorf("session %d commit: %w", s.idx, err)
			return res
		}
		if m.BodySHA256 != hashBytes(tr.Bytes()) || !m.Replayable || up.GapFrames != 0 {
			res.divergences++
		}
		pool.add(runID)

	case LoadReplay, LoadCompare:
		target := pool.pick(rng)
		if target == "" {
			res.err = fmt.Errorf("session %d: no committed run to %s", s.idx, s.kind)
			return res
		}
		kind, ref := JobReplay, ""
		if s.kind == LoadCompare {
			kind, ref = JobCompare, target
		}
		j, err := cl.SubmitJob(ctx, kind, target, ref)
		if err != nil {
			res.err = fmt.Errorf("session %d submit: %w", s.idx, err)
			return res
		}
		j, err = pollJob(ctx, cl, j.ID)
		if err != nil {
			res.err = fmt.Errorf("session %d wait: %w", s.idx, err)
			return res
		}
		if j.Status != "done" || j.Clean == nil || !*j.Clean || j.Divergences > 0 {
			res.divergences++
		}

	case LoadDegraded:
		// Kill one mid-stream segment on every delivery attempt: the
		// client must declare the gap and the run must commit degraded.
		deadSeq := uint32(opts.SegmentFrames)
		if len(tr.Frames()) <= opts.SegmentFrames {
			deadSeq = 0
		}
		cl.WireFault = func(attempt int, firstSeq uint32, data []byte) ([]byte, error) {
			if firstSeq == deadSeq {
				return nil, fmt.Errorf("load: link down for segment at %d", firstSeq)
			}
			return data, nil
		}
		sess, err := cl.OpenSession(ctx, runID, meta)
		if err != nil {
			res.err = fmt.Errorf("session %d open: %w", s.idx, err)
			return res
		}
		up, err := cl.UploadTrace(ctx, sess.SessionID, tr)
		if err != nil {
			res.err = fmt.Errorf("session %d degraded upload: %w", s.idx, err)
			return res
		}
		m, err := cl.Commit(ctx, sess.SessionID)
		if err != nil {
			res.err = fmt.Errorf("session %d degraded commit: %w", s.idx, err)
			return res
		}
		res.gapFrames = m.UploadGapFrames
		if up.GapFrames == 0 || m.Replayable || !m.Degraded() {
			res.divergences++ // the loss went silent
		}
		// A degraded run must be refused replay — acceptance would mean
		// the service is willing to serve a hole as a trace.
		if _, err := cl.SubmitJob(ctx, JobReplay, runID, ""); err == nil {
			res.divergences++
		}
	}
	return res
}

// pollJob waits for a job's terminal status by polling GetJob with a
// bounded backoff. The server's wait=1 long poll is capped by its
// per-request deadline, so under a full-fleet storm — where a job can sit
// queued for minutes behind the upload burst — a single long poll times
// out and spends error budget on a healthy service; polling has no such
// ceiling and each probe stays within the request deadline.
//
//lint:detaudit backoff sleeps pace load-harness polling only; no recorded or replayed state depends on them
func pollJob(ctx context.Context, cl *Client, id string) (*Job, error) {
	delay := 50 * time.Millisecond
	for {
		j, err := cl.GetJob(ctx, id)
		if err != nil {
			return nil, err
		}
		if j.Status == "done" || j.Status == "failed" {
			return j, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(delay):
		}
		if delay < 2*time.Second {
			delay *= 2
		}
	}
}

// fetchServerSlow returns the server's /v1/slow exemplar ring.
func fetchServerSlow(ctx context.Context, httpc *http.Client, url string) []SlowRequest {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/slow", nil)
	if err != nil {
		return nil
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var out struct {
		Slow []SlowRequest `json:"slow"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil
	}
	return out.Slow
}
