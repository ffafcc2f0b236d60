package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"vidi/internal/eval"
	"vidi/internal/fault"
	"vidi/internal/telemetry"
	"vidi/internal/trace"
)

// Chaos harness: every scenario records a real workload under the eval
// harness, streams it into a *live* vidi-serve instance over HTTP while a
// fault.Plan-derived injector mangles the wire or the disk, and then
// proves the two service invariants the hard way:
//
//   - zero corrupted manifests — every store reopen re-verifies every
//     previously committed run hash by hash;
//   - zero silent divergences — every replayable run is replayed (R3)
//     and its divergence report must be clean, with degraded-recording
//     gap accounting matching the manifest exactly.
//
// The kill-restart scenario stops the server mid-session, plants the
// torn-write artifacts a real crash leaves (a half-appended segment log
// record, a half-written journal line), and demands recovery quarantines
// both while the session resumes and completes.

// Chaos scenario kinds.
const (
	ChaosBaseline          = "baseline"
	ChaosBitFlip           = "wire-bitflip"
	ChaosTruncate          = "wire-truncate"
	ChaosWireBrownout      = "wire-brownout"
	ChaosWireStall         = "wire-stall"
	ChaosWireOutageGap     = "wire-outage-gap"
	ChaosDegradedRecording = "degraded-recording"
	ChaosStoreBrownout     = "store-brownout"
	ChaosStoreBreaker      = "store-outage-breaker"
	ChaosKillRestart       = "kill-restart"
)

// ChaosScenario is one cell of the service fault matrix.
type ChaosScenario struct {
	Name string
	App  string
	Kind string
}

// DefaultChaosScenarios is the stock matrix: every wire fault class from
// internal/fault against live uploads for both fault-matrix apps, plus
// store faults, breaker escalation, degraded recording and the
// kill-and-restart recovery drill.
func DefaultChaosScenarios() []ChaosScenario {
	var out []ChaosScenario
	for _, app := range eval.DefaultFaultApps() {
		for _, kind := range []string{ChaosBaseline, ChaosBitFlip, ChaosTruncate} {
			out = append(out, ChaosScenario{Name: kind + "-" + app, App: app, Kind: kind})
		}
	}
	out = append(out,
		ChaosScenario{Name: "wire-brownout-dma-irq", App: "dma-irq", Kind: ChaosWireBrownout},
		ChaosScenario{Name: "wire-stall-digitr", App: "digitr", Kind: ChaosWireStall},
		ChaosScenario{Name: "wire-outage-gap-dma-irq", App: "dma-irq", Kind: ChaosWireOutageGap},
		ChaosScenario{Name: "degraded-recording-dma-irq", App: "dma-irq", Kind: ChaosDegradedRecording},
		ChaosScenario{Name: "store-brownout-digitr", App: "digitr", Kind: ChaosStoreBrownout},
		ChaosScenario{Name: "store-outage-breaker-dma-irq", App: "dma-irq", Kind: ChaosStoreBreaker},
		ChaosScenario{Name: "kill-restart-dma-irq", App: "dma-irq", Kind: ChaosKillRestart},
	)
	return out
}

// ChaosResult is one scenario's outcome.
type ChaosResult struct {
	Scenario    string
	App         string
	Kind        string
	RunID       string
	Committed   bool
	Degraded    bool
	Replayed    bool
	Divergences int
	Unrecorded  uint64
	Quarantined int
	Deduped     int
	Err         string
}

// ChaosReport is the matrix outcome plus the final full-store audit.
type ChaosReport struct {
	Results           []ChaosResult
	FinalRecovery     *Recovery
	CorruptManifests  int
	SilentDivergences int
}

// Failures lists every violated invariant, empty when the matrix passed.
func (r *ChaosReport) Failures() []string {
	var fails []string
	for _, res := range r.Results {
		if res.Err != "" {
			fails = append(fails, fmt.Sprintf("%s: %s", res.Scenario, res.Err))
		}
	}
	if r.CorruptManifests > 0 {
		fails = append(fails, fmt.Sprintf("%d corrupted manifest(s) surfaced on final recovery", r.CorruptManifests))
	}
	if r.SilentDivergences > 0 {
		fails = append(fails, fmt.Sprintf("%d silent divergence(s)", r.SilentDivergences))
	}
	return fails
}

// String renders the matrix.
func (r *ChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-22s %-9s %-8s %s\n", "SCENARIO", "KIND", "COMMIT", "REPLAY", "NOTES")
	for _, res := range r.Results {
		commit := "no"
		if res.Committed {
			commit = "yes"
			if res.Degraded {
				commit = "degraded"
			}
		}
		replay := "-"
		if res.Replayed {
			replay = fmt.Sprintf("%dd/%du", res.Divergences, res.Unrecorded)
		}
		notes := res.Err
		if notes == "" && res.Quarantined > 0 {
			notes = fmt.Sprintf("%d quarantined", res.Quarantined)
		}
		if notes == "" && res.Deduped > 0 {
			notes = fmt.Sprintf("%d deduped", res.Deduped)
		}
		fmt.Fprintf(&b, "%-28s %-22s %-9s %-8s %s\n", res.Scenario, res.Kind, commit, replay, notes)
	}
	fmt.Fprintf(&b, "corrupt manifests: %d, silent divergences: %d\n", r.CorruptManifests, r.SilentDivergences)
	return b.String()
}

// ChaosOptions configures a matrix run.
type ChaosOptions struct {
	// Root is the store directory (required; reused across scenarios so
	// every scenario's reopen re-audits all earlier commits).
	Root string
	// Scale / Seed parameterize the recorded workloads (defaults 1 / 42).
	Scale int
	Seed  int64
	// Scenarios overrides DefaultChaosScenarios.
	Scenarios []ChaosScenario
	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)
}

// RunChaosMatrix executes the service fault matrix.
func RunChaosMatrix(opts ChaosOptions) (*ChaosReport, error) {
	if opts.Root == "" {
		return nil, errors.New("serve: chaos: Root is required")
	}
	if opts.Scale == 0 {
		opts.Scale = 1
	}
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	if opts.Scenarios == nil {
		opts.Scenarios = DefaultChaosScenarios()
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	h := &chaosHarness{opts: opts, recordings: map[string]*trace.Trace{}}
	report := &ChaosReport{}
	for _, sc := range opts.Scenarios {
		opts.Log("chaos: %s", sc.Name)
		res := h.run(sc)
		report.Results = append(report.Results, res)
		if res.Err != "" {
			opts.Log("chaos: %s FAILED: %s", sc.Name, res.Err)
		}
	}

	// Final audit: reopen the store cold and demand every run committed
	// during the matrix is still fully intact.
	st, rec, err := OpenStore(opts.Root, StoreOptions{})
	if err != nil {
		return report, err
	}
	_ = st
	report.FinalRecovery = rec
	intact := map[string]bool{}
	for _, id := range rec.Intact {
		intact[id] = true
	}
	for _, id := range h.committed {
		if !intact[id] {
			report.CorruptManifests++
		}
	}
	for _, res := range report.Results {
		if res.Replayed && res.Divergences > 0 {
			report.SilentDivergences += res.Divergences
		}
	}
	return report, nil
}

type chaosHarness struct {
	opts       ChaosOptions
	recordings map[string]*trace.Trace
	committed  []string
}

// record produces (and caches) the workload recording for a scenario.
// Degraded recordings run under a link-brownout plan with a small staging
// buffer, the eval fault-matrix configuration that genuinely drives the
// encoder through its lossy path.
func (h *chaosHarness) record(app string, degraded bool) (*trace.Trace, error) {
	key := app
	if degraded {
		key += "+degraded"
	}
	if tr, ok := h.recordings[key]; ok {
		return tr, nil
	}
	rc := eval.RunConfig{App: app, Scale: h.opts.Scale, Seed: h.opts.Seed, Cfg: eval.R2}
	if degraded {
		rc.FaultPlan = fault.NewPlan(h.opts.Seed^0x5eed, fault.LinkBrownout)
		rc.DegradedRecording = true
		rc.BufBytes = 4 << 10
	}
	rec, err := eval.Run(rc)
	if err != nil {
		return nil, err
	}
	if !degraded && rec.CheckErr != nil {
		return nil, fmt.Errorf("recording failed golden check: %w", rec.CheckErr)
	}
	h.recordings[key] = rec.Trace
	return rec.Trace, nil
}

// liveServer is one vidi-serve instance on a real TCP listener.
type liveServer struct {
	store  *Store
	rec    *Recovery
	server *Server
	hs     *http.Server
	url    string
}

func startLiveServer(root string, sopts StoreOptions, limits Limits, sink *telemetry.Sink) (*liveServer, error) {
	st, rec, err := OpenStore(root, sopts)
	if err != nil {
		return nil, err
	}
	srv := NewServer(st, ServerOptions{Limits: limits, Sink: sink, Recovery: rec})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	return &liveServer{
		store:  st,
		rec:    rec,
		server: srv,
		hs:     hs,
		url:    "http://" + ln.Addr().String(),
	}, nil
}

// stop kills the listener and the service (open sessions abort; their
// durable segments stay resumable — the graceful half of a crash).
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = ls.hs.Shutdown(ctx)
	cancel()
	ls.server.Close()
}

func (h *chaosHarness) storeOpts() StoreOptions {
	return StoreOptions{
		JitterSeed:      h.opts.Seed,
		BackoffBase:     time.Millisecond,
		BreakerCooldown: 30 * time.Millisecond,
	}
}

func (h *chaosHarness) run(sc ChaosScenario) ChaosResult {
	res := ChaosResult{Scenario: sc.Name, App: sc.App, Kind: sc.Kind, RunID: "chaos-" + sc.Name}
	if err := h.scenario(sc, &res); err != nil {
		res.Err = err.Error()
	}
	return res
}

func (h *chaosHarness) scenario(sc ChaosScenario, res *ChaosResult) error {
	if sc.Kind == ChaosKillRestart {
		return h.killRestart(sc, res)
	}
	tr, err := h.record(sc.App, sc.Kind == ChaosDegradedRecording)
	if err != nil {
		return err
	}
	ls, err := startLiveServer(h.opts.Root, h.storeOpts(), Limits{}, nil)
	if err != nil {
		return err
	}
	defer ls.stop()

	plan := fault.NewPlan(h.opts.Seed^0xc4a05, fault.BitFlip, fault.Truncate, fault.LinkBrownout)
	cl := &Client{BaseURL: ls.url, SegmentFrames: 16}
	var wireErrors atomic.Uint64
	switch sc.Kind {
	case ChaosBitFlip:
		cl.WireFault = func(attempt int, firstSeq uint32, data []byte) ([]byte, error) {
			if attempt > 0 {
				return data, nil // the wire healed; the clean retry must land
			}
			wireErrors.Add(1)
			frames, _ := framesFromBytes(data)
			return framesToBytes(plan.Derive(fmt.Sprintf("seg-%d", firstSeq)).CorruptFrames(frames)), nil
		}
	case ChaosTruncate:
		cl.WireFault = func(attempt int, firstSeq uint32, data []byte) ([]byte, error) {
			if attempt > 0 || len(data) < trace.StoragePacketSize {
				return data, nil
			}
			wireErrors.Add(1)
			return data[:len(data)-trace.StoragePacketSize/2], nil // torn mid-frame
		}
	case ChaosWireBrownout:
		cl.WireFault = func(attempt int, firstSeq uint32, data []byte) ([]byte, error) {
			if attempt < 2 && (firstSeq/16)%2 == 0 {
				wireErrors.Add(1)
				return nil, fmt.Errorf("link brownout (attempt %d)", attempt)
			}
			return data, nil
		}
	case ChaosWireStall:
		cl.WireFault = func(attempt int, firstSeq uint32, data []byte) ([]byte, error) {
			if attempt == 0 && (firstSeq/16)%3 == 0 {
				wireErrors.Add(1)
				time.Sleep(5 * time.Millisecond) // CPU-stall class: slow, not lost
			}
			return data, nil
		}
	case ChaosWireOutageGap:
		cl.WireFault = func(attempt int, firstSeq uint32, data []byte) ([]byte, error) {
			if firstSeq == 16 {
				wireErrors.Add(1)
				return nil, errors.New("link outage: segment unreachable")
			}
			return data, nil
		}
	case ChaosStoreBrownout:
		var n atomic.Uint64
		ls.store.FaultFn = func(op string) error {
			if n.Add(1)%5 < 2 {
				return fmt.Errorf("disk brownout during %s", op)
			}
			return nil
		}
	case ChaosStoreBreaker:
		// Handled inline below: the outage must start mid-upload.
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	meta := RunMeta{Tenant: "chaos", App: sc.App, Scale: h.opts.Scale, Seed: h.opts.Seed}
	sess, err := cl.OpenSession(ctx, res.RunID, meta)
	if err != nil {
		return fmt.Errorf("open session: %w", err)
	}

	if sc.Kind == ChaosStoreBreaker {
		if err := h.breakerScenario(ctx, cl, ls, sess.SessionID, tr, res); err != nil {
			return err
		}
	} else {
		up, err := cl.UploadTrace(ctx, sess.SessionID, tr)
		if err != nil {
			return fmt.Errorf("upload: %w", err)
		}
		res.Deduped = up.Deduped
		switch sc.Kind {
		case ChaosBitFlip, ChaosTruncate, ChaosWireBrownout, ChaosWireStall:
			if wireErrors.Load() == 0 {
				return errors.New("wire fault never fired; scenario proved nothing")
			}
			if up.GapFrames != 0 {
				return fmt.Errorf("transient wire fault degraded the upload (%d gap frames); retries should have absorbed it", up.GapFrames)
			}
		case ChaosWireOutageGap:
			if up.GapFrames == 0 {
				return errors.New("outage scenario produced no gap")
			}
		}
	}

	m, err := cl.Commit(ctx, sess.SessionID)
	if err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	res.Committed = true
	res.Degraded = m.Degraded()
	h.committed = append(h.committed, res.RunID)
	return h.verify(ctx, cl, tr, m, res)
}

// verify closes the loop on a committed run: degraded uploads must be
// preserved-but-unreplayable, everything else must replay with zero
// divergences and the exact gap accounting the manifest promised.
func (h *chaosHarness) verify(ctx context.Context, cl *Client, tr *trace.Trace, m *Manifest, res *ChaosResult) error {
	if m.UploadGapFrames > 0 {
		if m.Replayable {
			return errors.New("upload-gapped run is marked replayable: the stream has holes")
		}
		if _, err := cl.SubmitJob(ctx, JobReplay, m.RunID, ""); err == nil {
			return errors.New("replay job accepted for an unreplayable run")
		}
		return nil
	}
	if !m.Replayable {
		return errors.New("intact upload is marked unreplayable")
	}
	if m.Unrecorded != tr.UnrecordedTransactions() {
		return fmt.Errorf("manifest records %d unrecorded transactions, source trace has %d",
			m.Unrecorded, tr.UnrecordedTransactions())
	}
	j, err := cl.SubmitJob(ctx, JobReplay, m.RunID, "")
	if err != nil {
		return fmt.Errorf("submit replay: %w", err)
	}
	j, err = cl.WaitJob(ctx, j.ID)
	if err != nil {
		return fmt.Errorf("wait replay: %w", err)
	}
	if j.Status != "done" {
		return fmt.Errorf("replay job %s: %s", j.Status, j.Error)
	}
	res.Replayed = true
	res.Divergences = j.Divergences
	res.Unrecorded = j.Unrecorded
	if j.Clean == nil || !*j.Clean {
		return fmt.Errorf("replay diverged: %s", j.Report)
	}
	if j.Unrecorded != m.Unrecorded {
		return fmt.Errorf("replay reported %d unrecorded transactions, manifest promised %d", j.Unrecorded, m.Unrecorded)
	}
	return nil
}

// breakerScenario drives the store into a sustained outage mid-upload:
// retries exhaust, the typed 503s surface, the breaker opens and sheds,
// and after the outage heals the same session completes cleanly.
func (h *chaosHarness) breakerScenario(ctx context.Context, cl *Client, ls *liveServer, sessionID string, tr *trace.Trace, res *ChaosResult) error {
	frames := tr.Frames()
	per := cl.SegmentFrames
	if len(frames) < 2*per {
		return fmt.Errorf("trace too small (%d frames) for the breaker scenario", len(frames))
	}
	// First segment lands with the store healthy.
	if _, err := cl.PutSegment(ctx, sessionID, 0, framesToBytes(frames[:per])); err != nil {
		return fmt.Errorf("healthy segment: %w", err)
	}
	// Sustained outage: every durable operation fails.
	var down atomic.Bool
	down.Store(true)
	ls.store.FaultFn = func(op string) error {
		if down.Load() {
			return fmt.Errorf("disk outage during %s", op)
		}
		return nil
	}
	seg2 := framesToBytes(frames[per : 2*per])
	saw503 := false
	for i := 0; i < 3; i++ {
		_, err := cl.putSegmentOnce(ctx, sessionID, uint32(per), seg2)
		if err == nil {
			return errors.New("segment landed during a total store outage")
		}
		var ae *APIError
		if asAPI(err, &ae) && ae.Status == http.StatusServiceUnavailable {
			saw503 = true
		}
	}
	if !saw503 {
		return errors.New("store outage never surfaced as a 503")
	}
	if ls.store.Breaker().State() == 0 {
		return errors.New("sustained outage did not open the circuit breaker")
	}
	// Outage heals; wait out the cooldown so the half-open probe can close
	// the breaker, then finish the upload through the normal retry path.
	down.Store(false)
	time.Sleep(50 * time.Millisecond)
	for off := per; off < len(frames); off += per {
		end := off + per
		if end > len(frames) {
			end = len(frames)
		}
		if _, err := cl.PutSegment(ctx, sessionID, uint32(off), framesToBytes(frames[off:end])); err != nil {
			return fmt.Errorf("post-outage segment at %d: %w", off, err)
		}
	}
	if ls.store.Breaker().State() != 0 {
		return errors.New("breaker did not close after the outage healed")
	}
	return nil
}

// killRestart uploads half a run, stops the server, plants the artifacts
// of a crash mid-write (torn segment log record, torn journal tail), and
// verifies restart recovery quarantines both while the session resumes,
// completes and replays cleanly.
func (h *chaosHarness) killRestart(sc ChaosScenario, res *ChaosResult) error {
	tr, err := h.record(sc.App, false)
	if err != nil {
		return err
	}
	frames := tr.Frames()
	const per = 16
	if len(frames) < 2*per {
		return fmt.Errorf("trace too small (%d frames) for kill-restart", len(frames))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	meta := RunMeta{Tenant: "chaos", App: sc.App, Scale: h.opts.Scale, Seed: h.opts.Seed}

	// Phase 1: upload the first half, then die.
	ls, err := startLiveServer(h.opts.Root, h.storeOpts(), Limits{}, nil)
	if err != nil {
		return err
	}
	cl := &Client{BaseURL: ls.url, SegmentFrames: per}
	sess, err := cl.OpenSession(ctx, res.RunID, meta)
	if err != nil {
		ls.stop()
		return fmt.Errorf("open session: %w", err)
	}
	half := (len(frames) / per / 2) * per
	if half == 0 {
		half = per
	}
	for off := 0; off < half; off += per {
		if _, err := cl.PutSegment(ctx, sess.SessionID, uint32(off), framesToBytes(frames[off:off+per])); err != nil {
			ls.stop()
			return fmt.Errorf("first-half segment at %d: %w", off, err)
		}
	}
	ls.stop()

	// The crash leaves what fsync ordering allows: a segment log record
	// whose append never completed (half its bytes) and a half-written
	// journal line.
	tail := framesToBytes(frames[half : half+per])
	rec := appendRecord(nil, sha256.Sum256(tail), encodeSegment(tail))
	for _, a := range []struct {
		name string
		torn []byte
	}{{"segments", rec[:len(rec)/2]}, {"journal", []byte("deadbeef gap 12")}} { // journal: no newline, bad CRC
		f, err := os.OpenFile(filepath.Join(h.opts.Root, res.RunID, a.name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			_, err = f.Write(a.torn)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("planting crash artifacts: %w", err)
		}
	}

	// Phase 2: restart. Recovery must quarantine both artifacts and keep
	// the run resumable.
	ls, err = startLiveServer(h.opts.Root, h.storeOpts(), Limits{}, nil)
	if err != nil {
		return err
	}
	defer ls.stop()
	for _, q := range ls.rec.Quarantined {
		if q.RunID == res.RunID {
			res.Quarantined++
		}
	}
	if res.Quarantined < 2 {
		return fmt.Errorf("recovery quarantined %d artifact(s), expected the torn log record and journal tail (2)", res.Quarantined)
	}
	resumable := false
	for _, id := range ls.rec.Resumable {
		if id == res.RunID {
			resumable = true
		}
	}
	if !resumable {
		return errors.New("half-uploaded run did not survive the crash as resumable")
	}

	cl = &Client{BaseURL: ls.url, SegmentFrames: per}
	sess, err = cl.OpenSession(ctx, res.RunID, meta)
	if err != nil {
		return fmt.Errorf("resume session: %w", err)
	}
	if !sess.Resumed {
		return errors.New("session did not report resuming recovered segments")
	}
	up, err := cl.UploadTrace(ctx, sess.SessionID, tr)
	if err != nil {
		return fmt.Errorf("resumed upload: %w", err)
	}
	res.Deduped = up.Deduped
	if up.Deduped == 0 {
		return errors.New("resumed upload re-wrote every segment; recovered segments did not dedup")
	}
	if up.GapFrames != 0 {
		return fmt.Errorf("resumed upload degraded (%d gap frames)", up.GapFrames)
	}
	m, err := cl.Commit(ctx, sess.SessionID)
	if err != nil {
		return fmt.Errorf("commit after restart: %w", err)
	}
	res.Committed = true
	res.Degraded = m.Degraded()
	h.committed = append(h.committed, res.RunID)
	return h.verify(ctx, cl, tr, m, res)
}
