package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"vidi/internal/eval"
	"vidi/internal/telemetry"
	"vidi/internal/trace"
)

// testFrames builds a valid CRC/sequenced frame stream over arbitrary
// payload bytes — enough for API tests that never decode a trace.
func testFrames(t *testing.T, payloadBytes int, salt byte) []byte {
	t.Helper()
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i*7) ^ salt
	}
	return framesToBytes(trace.FrameStream(payload))
}

func newTestServer(t *testing.T, limits Limits) (*liveServer, *Client) {
	t.Helper()
	ls, err := startLiveServer(t.TempDir(), fastOpts(), limits, nil)
	if err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(ls.stop)
	return ls, &Client{BaseURL: ls.url, SegmentFrames: 4}
}

// recordedTrace caches one real recording for the tests that need a
// decodable trace (commit accounting, jobs).
var (
	recOnce  sync.Once
	recTrace *trace.Trace
	recErr   error
)

func recordedTrace(t *testing.T) *trace.Trace {
	t.Helper()
	recOnce.Do(func() {
		var res *eval.RunResult
		res, recErr = eval.Run(eval.RunConfig{App: "dma-irq", Scale: 1, Seed: 42, Cfg: eval.R2})
		if recErr == nil {
			recTrace = res.Trace
		}
	})
	if recErr != nil {
		t.Fatalf("recording: %v", recErr)
	}
	return recTrace
}

func TestServerUploadCommitAndCompare(t *testing.T) {
	ls, cl := newTestServer(t, Limits{})
	tr := recordedTrace(t)
	ctx := context.Background()

	sess, err := cl.OpenSession(ctx, "run-a", RunMeta{Tenant: "acme", App: "dma-irq", Scale: 1, Seed: 42})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	up, err := cl.UploadTrace(ctx, sess.SessionID, tr)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if up.GapFrames != 0 || up.Frames != len(tr.Frames()) {
		t.Fatalf("upload stats: %+v", up)
	}
	m, err := cl.Commit(ctx, sess.SessionID)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if !m.Replayable || m.Degraded() {
		t.Fatalf("clean upload committed wrong: %+v", m)
	}
	if m.Transactions != tr.TotalTransactions() {
		t.Fatalf("manifest transactions %d, trace %d", m.Transactions, tr.TotalTransactions())
	}
	if m.BodySHA256 != hashBytes(tr.Bytes()) {
		t.Fatal("manifest body hash does not match the source trace")
	}

	// The committed run round-trips through the manifest API.
	got, err := cl.Run(ctx, "run-a")
	if err != nil || got.RunID != "run-a" {
		t.Fatalf("run fetch: %+v %v", got, err)
	}

	// A compare job of the run against itself is definitionally clean.
	j, err := cl.SubmitJob(ctx, JobCompare, "run-a", "run-a")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j, err = cl.WaitJob(ctx, j.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if j.Status != "done" || j.Clean == nil || !*j.Clean {
		t.Fatalf("self-compare not clean: %+v", j)
	}

	// /metrics serves parseable Prometheus text with the serve families.
	resp, err := http.Get(ls.url + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	snap, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("metrics parse: %v", err)
	}
	if v := snap.Total("vidi_serve_sessions_committed_total"); v != 1 {
		t.Fatalf("sessions_committed metric = %v, want 1", v)
	}
	if v := snap.Total("vidi_serve_frames_total"); v != float64(len(tr.Frames())) {
		t.Fatalf("frames metric = %v, want %d", v, len(tr.Frames()))
	}
}

func TestServerRejectsCorruptAndConflictingSegments(t *testing.T) {
	_, cl := newTestServer(t, Limits{})
	ctx := context.Background()
	sess, err := cl.OpenSession(ctx, "run-b", RunMeta{Tenant: "acme", App: "dma-irq"})
	if err != nil {
		t.Fatal(err)
	}
	seg := testFrames(t, 300, 0)

	expectStatus := func(err error, status int, code string) {
		t.Helper()
		var ae *APIError
		if !asAPI(err, &ae) || ae.Status != status || ae.Code != code {
			t.Fatalf("want HTTP %d %s, got %v", status, code, err)
		}
	}

	// Bit-flipped frame: 422, and nothing reaches the store.
	bad := append([]byte(nil), seg...)
	bad[10] ^= 0x40
	_, err = cl.putSegmentOnce(ctx, sess.SessionID, 0, bad)
	expectStatus(err, http.StatusUnprocessableEntity, "corrupt_frame")

	// Mid-frame truncation: 422.
	_, err = cl.putSegmentOnce(ctx, sess.SessionID, 0, seg[:len(seg)-17])
	expectStatus(err, http.StatusUnprocessableEntity, "corrupt_frame")

	// Out-of-order start: 409.
	_, err = cl.putSegmentOnce(ctx, sess.SessionID, 2, seg)
	expectStatus(err, http.StatusConflict, "out_of_order")

	// Clean delivery, then an identical retry dedupes as a 200.
	if _, err := cl.putSegmentOnce(ctx, sess.SessionID, 0, seg); err != nil {
		t.Fatalf("clean put: %v", err)
	}
	resp, err := cl.putSegmentOnce(ctx, sess.SessionID, 0, seg)
	if err != nil || !resp.Dedup {
		t.Fatalf("idempotent retry: %+v %v", resp, err)
	}

	// Same position, different bytes: 409 conflict.
	other := testFrames(t, 300, 0x5a)
	_, err = cl.putSegmentOnce(ctx, sess.SessionID, 0, other)
	expectStatus(err, http.StatusConflict, "segment_conflict")
}

func TestServerAdmissionQuotas(t *testing.T) {
	_, cl := newTestServer(t, Limits{
		MaxSessionsPerTenant: 1,
		MaxOpenSessions:      2,
		MaxSegmentBytes:      512,
		MaxRunBytes:          1000,
	})
	ctx := context.Background()

	if _, err := cl.OpenSession(ctx, "q1", RunMeta{Tenant: "acme", App: "a"}); err != nil {
		t.Fatal(err)
	}
	// Tenant quota: second session for acme is a 429.
	_, err := cl.OpenSession(ctx, "q2", RunMeta{Tenant: "acme", App: "a"})
	var ae *APIError
	if !asAPI(err, &ae) || ae.Status != http.StatusTooManyRequests || ae.Code != "tenant_session_quota" {
		t.Fatalf("tenant quota: %v", err)
	}
	// Server quota: a third tenant when the server cap is 2 is a 503.
	if _, err := cl.OpenSession(ctx, "q3", RunMeta{Tenant: "bbb", App: "a"}); err != nil {
		t.Fatal(err)
	}
	_, err = cl.OpenSession(ctx, "q4", RunMeta{Tenant: "ccc", App: "a"})
	if !asAPI(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.Code != "server_sessions_exhausted" {
		t.Fatalf("server quota: %v", err)
	}

	// Byte quotas ride on the upload path.
	sess, err := cl.OpenSession(ctx, "q5", RunMeta{Tenant: "ddd", App: "a"})
	if err == nil {
		t.Fatal("expected server quota to also stop q5") // cap is 2
	}
	// Free a slot and retry.
	if err := cl.Abort(ctx, "s-1"); err != nil {
		t.Fatalf("abort: %v", err)
	}
	sess, err = cl.OpenSession(ctx, "q5", RunMeta{Tenant: "ddd", App: "a"})
	if err != nil {
		t.Fatal(err)
	}
	big := testFrames(t, 1000, 0) // > 512 bytes framed
	_, err = cl.putSegmentOnce(ctx, sess.SessionID, 0, big)
	if !asAPI(err, &ae) || ae.Code != "segment_too_large" {
		t.Fatalf("segment size quota: %v", err)
	}
	small := testFrames(t, 200, 0) // 4 frames = 256 bytes
	if _, err := cl.putSegmentOnce(ctx, sess.SessionID, 0, small); err != nil {
		t.Fatalf("first small segment: %v", err)
	}
	if _, err := cl.putSegmentOnce(ctx, sess.SessionID, 4, reseq(t, small, 4)); err != nil {
		t.Fatalf("second small segment: %v", err)
	}
	// Three 256-byte segments fit the 1000-byte run quota (768); the
	// fourth would cross it.
	if _, err := cl.putSegmentOnce(ctx, sess.SessionID, 8, reseq(t, small, 8)); err != nil {
		t.Fatalf("third small segment: %v", err)
	}
	_, err = cl.putSegmentOnce(ctx, sess.SessionID, 12, reseq(t, small, 12))
	if !asAPI(err, &ae) || ae.Code != "run_bytes_quota" {
		t.Fatalf("run byte quota: %v", err)
	}
}

// reseq re-stamps a frame stream's sequence numbers starting at first,
// recomputing CRCs, so quota tests can reuse one payload.
func reseq(t *testing.T, data []byte, first uint32) []byte {
	t.Helper()
	frames, err := framesFromBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	for i := range frames {
		_, used, err := trace.CheckFrame("test", &frames[i])
		if err != nil {
			t.Fatal(err)
		}
		payload = append(payload, trace.FramePayload(&frames[i], used)...)
	}
	out := trace.FrameStream(payload)
	if first > 0 {
		// FrameStream numbers from 0; renumber by reframing with a prefix
		// then dropping it.
		prefix := make([]byte, int(first)*trace.FramePayloadSize)
		out = trace.FrameStream(append(prefix, payload...))[first:]
	}
	return framesToBytes(out)
}

func TestServerGapCommitUnreplayable(t *testing.T) {
	_, cl := newTestServer(t, Limits{})
	ctx := context.Background()
	sess, err := cl.OpenSession(ctx, "gappy", RunMeta{Tenant: "acme", App: "dma-irq"})
	if err != nil {
		t.Fatal(err)
	}
	seg := testFrames(t, 300, 0)
	if _, err := cl.putSegmentOnce(ctx, sess.SessionID, 0, seg); err != nil {
		t.Fatal(err)
	}
	if err := cl.MarkGap(ctx, sess.SessionID, 6); err != nil {
		t.Fatalf("gap: %v", err)
	}
	m, err := cl.Commit(ctx, sess.SessionID)
	if err != nil {
		t.Fatalf("degraded commit: %v", err)
	}
	if !m.Degraded() || m.Replayable || m.UploadGapFrames != 6 {
		t.Fatalf("gap accounting wrong: %+v", m)
	}
	// Replay of a holed stream must be refused at submission.
	if _, err := cl.SubmitJob(ctx, JobReplay, "gappy", ""); err == nil {
		t.Fatal("replay accepted for an upload-gapped run")
	}
}

func TestServerRequestDeadline(t *testing.T) {
	ls, cl := newTestServer(t, Limits{RequestTimeout: 50 * time.Millisecond})
	ctx := context.Background()
	sess, err := cl.OpenSession(ctx, "slow", RunMeta{Tenant: "acme", App: "a"})
	if err != nil {
		t.Fatal(err)
	}
	// A store stall longer than the request deadline must surface as 504,
	// not hang the handler: the retrier notices the expired context before
	// its next attempt.
	ls.store.FaultFn = func(op string) error {
		time.Sleep(80 * time.Millisecond)
		return &stallError{}
	}
	_, err = cl.putSegmentOnce(ctx, sess.SessionID, 0, testFrames(t, 100, 0))
	var ae *APIError
	if !asAPI(err, &ae) || ae.Status != http.StatusGatewayTimeout {
		t.Fatalf("want 504 deadline, got %v", err)
	}
}

type stallError struct{}

func (*stallError) Error() string { return "stalled" }

func TestServerHealthAndRecoveryEndpoints(t *testing.T) {
	ls, _ := newTestServer(t, Limits{})
	for _, path := range []string{"/healthz", "/v1/recovery", "/v1/runs", "/v1/jobs"} {
		resp, err := http.Get(ls.url + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
		}
		ct := resp.Header.Get("Content-Type")
		if !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s: content type %q", path, ct)
		}
		resp.Body.Close()
	}
}

// TestServerRejectsHostileTenantApp: tenant/app values that would collide
// with journal framing (whitespace, control bytes, empties) are 400s at
// the API boundary — they never reach the store.
func TestServerRejectsHostileTenantApp(t *testing.T) {
	_, cl := newTestServer(t, Limits{})
	ctx := context.Background()
	for _, meta := range []RunMeta{
		{Tenant: "a b", App: "ok"},
		{Tenant: "evil\ntenant", App: "ok"},
		{Tenant: "ok", App: "dma irq"},
		{Tenant: "", App: "ok"},
		{Tenant: strings.Repeat("x", 200), App: "ok"},
	} {
		_, err := cl.OpenSession(ctx, "hostile", meta)
		var ae *APIError
		if !asAPI(err, &ae) || ae.Status != http.StatusBadRequest || ae.Code != "bad_request" {
			t.Fatalf("meta %+q: want 400 bad_request, got %v", meta, err)
		}
	}
	// The safe charset itself still works.
	if _, err := cl.OpenSession(ctx, "fine", RunMeta{Tenant: "org/team-1:us@prod+a", App: "dma-irq"}); err != nil {
		t.Fatalf("safe tenant refused: %v", err)
	}
}

// TestServerGapOverflowRejected: a gap declaration that would wrap the
// session's 32-bit sequence counter is a 400; the session survives and
// sane gaps still work.
func TestServerGapOverflowRejected(t *testing.T) {
	_, cl := newTestServer(t, Limits{})
	ctx := context.Background()
	sess, err := cl.OpenSession(ctx, "wrapy", RunMeta{Tenant: "acme", App: "a"})
	if err != nil {
		t.Fatal(err)
	}
	for _, frames := range []uint64{1 << 32, 1<<64 - 1} {
		err := cl.MarkGap(ctx, sess.SessionID, frames)
		var ae *APIError
		if !asAPI(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Fatalf("gap of %d: want 400, got %v", frames, err)
		}
	}
	if err := cl.MarkGap(ctx, sess.SessionID, 8); err != nil {
		t.Fatalf("sane gap after rejected overflow: %v", err)
	}
}

// TestJobPoolCloseDrainsQueuedJobs: jobs still queued at shutdown are
// failed (done channel closed) instead of staying "queued" forever and
// hanging wait() callers.
func TestJobPoolCloseDrainsQueuedJobs(t *testing.T) {
	st := commitRun(t, t.TempDir(), "rq")
	p := newJobPool(st, Limits{}, newMetrics(telemetry.New()))
	// Stop the workers first so submissions stay in the queue.
	p.cancel()
	p.wg.Wait()
	j, err := p.submit(JobReplay, "rq", "", "")
	if err != nil {
		t.Fatal(err)
	}
	p.close()
	got, err := p.wait(context.Background(), j.ID)
	if err != nil {
		t.Fatalf("wait after close: %v", err)
	}
	if got.Status != "failed" || !strings.Contains(got.Error, "shutting down") {
		t.Fatalf("queued job not failed at shutdown: %+v", got)
	}
}

// TestCompareRejectsUnreplayableRun: compare jobs need both streams to
// decode, so an upload-gapped run is refused at submission on either side
// — honest degradation must not surface later as a corruption-flavored
// failure.
func TestCompareRejectsUnreplayableRun(t *testing.T) {
	root := t.TempDir()
	st := commitRun(t, root, "good")
	ctx := context.Background()
	w, err := st.Begin(ctx, "gapped", RunMeta{Tenant: "t0", App: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.PutSegment(ctx, segData(2, 0x44), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.MarkGap(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(ctx, TraceStats{}); err != nil {
		t.Fatal(err)
	}

	p := newJobPool(st, Limits{}, newMetrics(telemetry.New()))
	defer p.close()
	if _, err := p.submit(JobCompare, "gapped", "good", ""); err == nil {
		t.Fatal("compare accepted an unreplayable target run")
	}
	if _, err := p.submit(JobCompare, "good", "gapped", ""); err == nil {
		t.Fatal("compare accepted an unreplayable reference run")
	}
	quarantinedBefore := p.met.quarantined.v.Load()
	if quarantinedBefore != 0 {
		t.Fatalf("rejections counted as quarantines: %d", quarantinedBefore)
	}
}

// ---- request tracing ----

func TestServerRequestTracing(t *testing.T) {
	ls, cl := newTestServer(t, Limits{})
	tr := recordedTrace(t)
	ctx := context.Background()

	// A client-supplied id is echoed back in the response header.
	req, err := http.NewRequest(http.MethodGet, ls.url+"/v1/runs", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Vidi-Request-Id", "trace-me-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("list runs: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Vidi-Request-Id"); got != "trace-me-1" {
		t.Fatalf("request id echo = %q, want trace-me-1", got)
	}

	// A request without an id gets a server-generated one.
	resp, err = http.Get(ls.url + "/v1/runs")
	if err != nil {
		t.Fatalf("list runs: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Vidi-Request-Id"); got == "" || got == "trace-me-1" {
		t.Fatalf("generated request id = %q", got)
	}

	// The traced request is an exemplar while the ring is still roomy
	// (later upload traffic is slower and will evict it).
	resp, err = http.Get(ls.url + "/v1/slow")
	if err != nil {
		t.Fatalf("slow: %v", err)
	}
	var early struct {
		Slow []SlowRequest `json:"slow"`
	}
	err = json.NewDecoder(resp.Body).Decode(&early)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("slow decode: %v", err)
	}
	var sawTraced bool
	for _, e := range early.Slow {
		if e.RequestID == "trace-me-1" && e.Endpoint == "list_runs" {
			sawTraced = true
		}
	}
	if !sawTraced {
		t.Fatalf("traced request missing from exemplars: %+v", early.Slow)
	}

	// Drive real store work so stage timings and a 4xx exist.
	sess, err := cl.OpenSession(ctx, "run-t", RunMeta{Tenant: "acme", App: "dma-irq", Scale: 1, Seed: 42})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := cl.UploadTrace(ctx, sess.SessionID, tr); err != nil {
		t.Fatalf("upload: %v", err)
	}
	if _, err := cl.Commit(ctx, sess.SessionID); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if resp, err = http.Get(ls.url + "/v1/runs/nope"); err != nil {
		t.Fatalf("404 probe: %v", err)
	}
	resp.Body.Close()

	// The store-heavy requests dominate the ring: the commit's
	// store-stage timeline and a put_segment exemplar must be there.
	resp, err = http.Get(ls.url + "/v1/slow")
	if err != nil {
		t.Fatalf("slow: %v", err)
	}
	var out struct {
		Slow []SlowRequest `json:"slow"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("slow decode: %v", err)
	}
	var sawCommit, sawPut bool
	stagesOf := func(e SlowRequest) map[string]bool {
		m := map[string]bool{}
		for _, s := range e.Stages {
			m[s.Stage] = true
		}
		return m
	}
	for _, e := range out.Slow {
		if e.Endpoint == "commit" && e.Tenant == "acme" {
			sawCommit = true
			st := stagesOf(e)
			for _, want := range []string{"readback", "decode", "manifest"} {
				if !st[want] {
					t.Fatalf("commit exemplar missing %q stage: %+v", want, e.Stages)
				}
			}
		}
		if e.Endpoint == "put_segment" && !sawPut {
			st := stagesOf(e)
			if st["write"] && !st["journal"] {
				sawPut = true
			}
		}
	}
	if !sawCommit || !sawPut {
		t.Fatalf("exemplars missing commit=%v put=%v: %+v", sawCommit, sawPut, out.Slow)
	}

	// RED metrics: per-endpoint latency summaries, error counters by
	// class, and the in-flight gauge family.
	resp, err = http.Get(ls.url + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	snap, err := telemetry.ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("metrics parse: %v", err)
	}
	fam := snap.Family("vidi_serve_request_duration_seconds")
	if fam == nil || fam.Kind != "summary" {
		t.Fatalf("request duration family missing or wrong kind: %+v", fam)
	}
	var sawCommitSeries bool
	for _, se := range fam.Series {
		if se.Labels["endpoint"] == "commit" && se.Count > 0 {
			sawCommitSeries = true
		}
	}
	if !sawCommitSeries {
		t.Fatalf("no commit latency series: %+v", fam.Series)
	}
	if v := snap.Total("vidi_serve_request_errors_total"); v < 1 {
		t.Fatalf("request errors total = %v, want >= 1 (the 404 probe)", v)
	}
	if snap.Family("vidi_serve_requests_in_flight") == nil {
		t.Fatal("in-flight gauge family missing")
	}
}

// TestJobCarriesRequestID: the job record remembers the submitting
// request's id — the correlation key a load report uses.
func TestJobCarriesRequestID(t *testing.T) {
	ls, cl := newTestServer(t, Limits{})
	tr := recordedTrace(t)
	ctx := context.Background()
	sess, err := cl.OpenSession(ctx, "run-j", RunMeta{Tenant: "acme", App: "dma-irq", Scale: 1, Seed: 42})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := cl.UploadTrace(ctx, sess.SessionID, tr); err != nil {
		t.Fatalf("upload: %v", err)
	}
	if _, err := cl.Commit(ctx, sess.SessionID); err != nil {
		t.Fatalf("commit: %v", err)
	}
	body := strings.NewReader(`{"kind":"replay","run_id":"run-j"}`)
	req, err := http.NewRequest(http.MethodPost, ls.url+"/v1/jobs", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Vidi-Request-Id", "submit-req-9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var j Job
	err = json.NewDecoder(resp.Body).Decode(&j)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("submit decode: %v", err)
	}
	if j.RequestID != "submit-req-9" {
		t.Fatalf("job request id = %q, want submit-req-9", j.RequestID)
	}
	got, err := cl.WaitJob(ctx, j.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if got.RequestID != "submit-req-9" || got.Status != "done" {
		t.Fatalf("finished job lost its request id: %+v", got)
	}
}
