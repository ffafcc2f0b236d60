package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vidi/internal/telemetry"
	"vidi/internal/trace"
)

// ServerOptions configures a Server.
type ServerOptions struct {
	// Limits are the admission quotas and deadlines (zeros = defaults).
	Limits Limits
	// Sink receives service metrics. Nil builds a private sink (metrics
	// still served on /metrics).
	Sink *telemetry.Sink
	// Recovery, when set, is the store-open recovery report, served on
	// /v1/recovery for operators (and the chaos harness) to audit.
	Recovery *Recovery
	// Logger, when set, receives one structured line per completed request
	// (endpoint, tenant, status, bytes, duration, request id, breaker
	// state) and per finished job. Nil disables request logging.
	Logger *slog.Logger
	// SlowRequests sizes the slow-request exemplar ring served at /v1/slow
	// (default 32).
	SlowRequests int
}

// Server is the vidi-serve HTTP service: sessions stream storage frames
// into the crash-safe store, jobs replay them under the eval harness.
type Server struct {
	store   *Store
	limits  Limits
	adm     *admission
	jobs    *jobPool
	sink    *telemetry.Sink
	met     *metrics
	mux     *http.ServeMux
	recInfo *Recovery
	log     *slog.Logger
	slow    *slowRing
	reqSeq  atomic.Uint64

	mu       sync.Mutex
	sessions map[string]*session
	seq      int
	closed   bool
}

// session is one tenant's open recording stream.
type session struct {
	id     string
	runID  string
	meta   RunMeta
	w      *RunWriter
	server *Server

	mu      sync.Mutex
	nextSeq uint32
	byFirst map[uint32]string // firstSeq → hash, for idempotent retries
	bytes   int64
	gone    bool
}

// NewServer builds the service on an opened store.
func NewServer(store *Store, opts ServerOptions) *Server {
	sink := opts.Sink
	if sink == nil {
		sink = telemetry.New()
	}
	met := newMetrics(sink)
	s := &Server{
		store:    store,
		limits:   opts.Limits,
		adm:      newAdmission(opts.Limits),
		sink:     sink,
		met:      met,
		recInfo:  opts.Recovery,
		log:      opts.Logger,
		slow:     newSlowRing(opts.SlowRequests),
		sessions: map[string]*session{},
	}
	s.jobs = newJobPool(store, opts.Limits, met)
	s.jobs.log = opts.Logger
	sink.GaugeFunc("vidi_serve_sessions_open", "Currently open recording sessions.",
		func() float64 { return float64(s.adm.openSessions()) })
	sink.GaugeFunc("vidi_serve_breaker_state", "Store breaker state: 0 closed, 0.5 half-open, 1 open.",
		store.Breaker().State)
	sink.GaugeFunc("vidi_serve_jobs_queued", "Jobs waiting for a worker.",
		func() float64 { return float64(s.jobs.queued()) })
	if opts.Recovery != nil {
		met.quarantined.Add(uint64(len(opts.Recovery.Quarantined)))
	}

	mux := http.NewServeMux()
	// route stamps the endpoint's metric/log name into the request trace
	// before dispatching, so RED metrics and exemplars label by route, not
	// raw path.
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			reqTraceFrom(r.Context()).setEndpoint(name)
			h(w, r)
		})
	}
	route("POST /v1/sessions", "open_session", s.handleOpenSession)
	route("POST /v1/sessions/{id}/segments", "put_segment", s.handlePutSegment)
	route("POST /v1/sessions/{id}/gap", "mark_gap", s.handleGap)
	route("POST /v1/sessions/{id}/commit", "commit", s.handleCommit)
	route("DELETE /v1/sessions/{id}", "abort", s.handleAbort)
	route("GET /v1/runs", "list_runs", s.handleRuns)
	route("GET /v1/runs/{id}", "get_run", s.handleRun)
	route("POST /v1/jobs", "submit_job", s.handleSubmitJob)
	route("GET /v1/jobs", "list_jobs", s.handleJobs)
	route("GET /v1/jobs/{id}", "get_job", s.handleJob)
	route("GET /v1/recovery", "recovery", s.handleRecovery)
	route("GET /v1/slow", "slow", s.handleSlow)
	route("GET /metrics", "metrics", s.handleMetrics)
	route("GET /healthz", "healthz", s.handleHealth)
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler: every request carries the
// configured deadline and a request trace (id accepted from
// X-Vidi-Request-Id or generated, echoed back in the response), and lands
// in the response-class and per-endpoint RED metrics, the structured
// request log, and — if slow enough — the /v1/slow exemplar ring.
//
//lint:detaudit wall-clock here times HTTP requests for latency metrics and logs only; replay and trace state inside jobs are cycle-derived
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := &reqTrace{id: requestID(r), start: time.Now()}
		if rt.id == "" {
			rt.id = fmt.Sprintf("r-%d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Vidi-Request-Id", rt.id)
		ctx, cancel := context.WithTimeout(withReqTrace(r.Context(), rt), s.limits.requestTimeout())
		defer cancel()
		s.met.inFlight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(rec, r.WithContext(ctx))
		s.met.inFlight.Add(-1)

		dur := time.Since(rt.start)
		endpoint, tenant, stages, retries := rt.snapshot()
		if endpoint == "" {
			endpoint = "unmatched"
		}
		breaker := s.store.Breaker().State()
		s.met.httpCode(rec.status)
		s.met.request(endpoint, rec.status, dur)
		s.slow.note(SlowRequest{
			RequestID:  rt.id,
			Endpoint:   endpoint,
			Tenant:     tenant,
			Status:     rec.status,
			Bytes:      rec.bytes,
			DurationMS: float64(dur) / float64(time.Millisecond),
			Retries:    retries,
			Breaker:    breaker,
			Stages:     stages,
		})
		if s.log != nil {
			level := slog.LevelInfo
			if rec.status >= 500 {
				level = slog.LevelError
			}
			s.log.LogAttrs(ctx, level, "request",
				slog.String("request_id", rt.id),
				slog.String("endpoint", endpoint),
				slog.String("tenant", tenant),
				slog.Int("status", rec.status),
				slog.Int64("bytes", rec.bytes),
				slog.Duration("duration", dur),
				slog.Int("retries", retries),
				slog.Float64("breaker", breaker),
			)
		}
	})
}

// Close drains the worker pool and aborts open sessions (their partial
// uploads stay resumable on disk).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	open := make([]*session, 0, len(s.sessions))
	for _, se := range s.sessions {
		open = append(open, se)
	}
	s.sessions = map[string]*session{}
	s.mu.Unlock()
	// Abort in session-id order, not map order: shutdown side effects
	// (admission releases, partial-upload tombstones) land in a
	// reproducible sequence for the chaos harness to compare across runs.
	sort.Slice(open, func(i, j int) bool { return open[i].id < open[j].id })
	for _, se := range open {
		se.w.Abort()
		s.adm.releaseSession(se.meta.Tenant)
		s.met.sessionsAborted.Add(1)
	}
	s.jobs.close()
}

type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// ---- error and JSON plumbing ----

type apiError struct {
	Code   string `json:"code"`
	Detail string `json:"detail"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, detail string) {
	writeJSON(w, status, apiError{Code: code, Detail: detail})
}

// fail maps internal errors onto the structured HTTP surface: admission
// quotas keep their own status, breaker/store faults are 503s with
// Retry-After, deadlines are 504s, frame corruption is a 422 the client
// must not retry verbatim.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var ae *AdmissionError
	var sfe *StoreFaultError
	var ce *trace.CorruptError
	var cre *CorruptRunError
	switch {
	case errors.As(err, &ae):
		s.met.admissionRejects.Add(1)
		if ae.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int((ae.RetryAfter+time.Second-1)/time.Second)))
		}
		writeErr(w, ae.Status, ae.Code, ae.Detail)
	case errors.Is(err, ErrBreakerOpen):
		s.met.breakerShed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "store_unavailable", err.Error())
	case errors.As(err, &sfe):
		s.met.storeFaults.Add(1)
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "store_fault", err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, "deadline_exceeded", err.Error())
	case errors.As(err, &ce):
		s.met.corruptFrames.Add(1)
		writeErr(w, http.StatusUnprocessableEntity, "corrupt_frame", err.Error())
	case errors.As(err, &cre):
		s.met.quarantined.Add(1)
		writeErr(w, http.StatusInternalServerError, "corrupt_run", err.Error())
	default:
		writeErr(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// ---- session lifecycle ----

type openSessionRequest struct {
	RunID  string `json:"run_id"`
	Tenant string `json:"tenant"`
	App    string `json:"app"`
	Scale  int    `json:"scale"`
	Seed   int64  `json:"seed"`
}

type openSessionResponse struct {
	SessionID string `json:"session_id"`
	RunID     string `json:"run_id"`
	// Resumed reports whether the run had recovered durable segments the
	// upload can dedupe against.
	Resumed bool `json:"resumed"`
}

func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	var req openSessionRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "body does not parse: "+err.Error())
		return
	}
	if !validLabel(req.Tenant) || !validLabel(req.App) || !validRunID(req.RunID) {
		writeErr(w, http.StatusBadRequest, "bad_request",
			"run_id, tenant and app are required (path-safe, printable, no whitespace)")
		return
	}
	reqTraceFrom(r.Context()).setTenant(req.Tenant)
	if err := s.adm.acquireSession(req.Tenant); err != nil {
		s.fail(w, err)
		return
	}
	meta := RunMeta{Tenant: req.Tenant, App: req.App, Scale: req.Scale, Seed: req.Seed}
	resumed := false
	s.store.mu.Lock()
	if rs := s.store.runs[req.RunID]; rs != nil && rs.partial != nil && len(rs.partial.segs) > 0 {
		resumed = true
	}
	s.store.mu.Unlock()
	wtr, err := s.store.Begin(r.Context(), req.RunID, meta)
	if err != nil {
		s.adm.releaseSession(req.Tenant)
		var sfe *StoreFaultError
		if errors.As(err, &sfe) || errors.Is(err, ErrBreakerOpen) {
			s.fail(w, err)
			return
		}
		writeErr(w, http.StatusConflict, "run_conflict", err.Error())
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		wtr.Abort()
		s.adm.releaseSession(req.Tenant)
		writeErr(w, http.StatusServiceUnavailable, "shutting_down", "server is shutting down")
		return
	}
	s.seq++
	se := &session{
		id:      fmt.Sprintf("s-%d", s.seq),
		runID:   req.RunID,
		meta:    meta,
		w:       wtr,
		server:  s,
		byFirst: map[uint32]string{},
	}
	s.sessions[se.id] = se
	s.mu.Unlock()

	s.met.sessionsOpened.Add(1)
	if resumed {
		s.met.sessionsResumed.Add(1)
	}
	writeJSON(w, http.StatusCreated, openSessionResponse{SessionID: se.id, RunID: req.RunID, Resumed: resumed})
}

func (s *Server) session(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.sessions[id]
	return se, ok
}

// dropSession removes the session and returns its admission slot.
func (s *Server) dropSession(se *session) {
	s.mu.Lock()
	delete(s.sessions, se.id)
	s.mu.Unlock()
	s.adm.releaseSession(se.meta.Tenant)
}

type putSegmentResponse struct {
	Hash   string `json:"hash"`
	Frames int    `json:"frames"`
	// Dedup reports an idempotent retry of an already-accepted segment.
	Dedup bool `json:"dedup"`
}

func (s *Server) handlePutSegment(w http.ResponseWriter, r *http.Request) {
	se, ok := s.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no_session", "unknown session")
		return
	}
	reqTraceFrom(r.Context()).setTenant(se.meta.Tenant)
	firstSeq64, err := strconv.ParseUint(r.Header.Get("X-Vidi-First-Seq"), 10, 32)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "X-Vidi-First-Seq header is required (decimal frame sequence)")
		return
	}
	firstSeq := uint32(firstSeq64)
	body, err := io.ReadAll(io.LimitReader(r.Body, int64(s.limits.segmentBytes())+1))
	if err != nil {
		s.fail(w, err)
		return
	}

	se.mu.Lock()
	defer se.mu.Unlock()
	if se.gone {
		writeErr(w, http.StatusNotFound, "no_session", "session is closed")
		return
	}
	if err := s.adm.checkSegment(len(body), se.bytes); err != nil {
		s.fail(w, err)
		return
	}
	// Verify before persisting: every frame's CRC, length, and stream
	// position. A corrupt upload never reaches the store.
	if len(body)%trace.StoragePacketSize != 0 {
		s.met.corruptFrames.Add(1)
		writeErr(w, http.StatusUnprocessableEntity, "corrupt_frame",
			fmt.Sprintf("stream length %d is not a whole number of frames", len(body)))
		return
	}
	nFrames := len(body) / trace.StoragePacketSize
	if nFrames == 0 {
		writeErr(w, http.StatusBadRequest, "bad_request", "empty segment")
		return
	}
	if uint64(nFrames) > math.MaxUint32-uint64(firstSeq) {
		writeErr(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("segment of %d frames at sequence %d overflows the run's 32-bit sequence space", nFrames, firstSeq))
		return
	}
	hash := hashBytes(body)

	// Idempotency: a retry of an accepted segment is a cheap 200; a
	// different payload at an accepted position is a conflict; anything
	// not at the stream head is out of order.
	if prev, seen := se.byFirst[firstSeq]; seen {
		if prev == hash {
			s.met.segmentsDeduped.Add(1)
			writeJSON(w, http.StatusOK, putSegmentResponse{Hash: hash, Frames: nFrames, Dedup: true})
			return
		}
		writeErr(w, http.StatusConflict, "segment_conflict",
			fmt.Sprintf("sequence %d was already accepted with different content", firstSeq))
		return
	}
	if firstSeq != se.nextSeq {
		writeErr(w, http.StatusConflict, "out_of_order",
			fmt.Sprintf("expected first sequence %d, got %d", se.nextSeq, firstSeq))
		return
	}
	for i := 0; i < nFrames; i++ {
		f := (*[trace.StoragePacketSize]byte)(body[i*trace.StoragePacketSize:])
		seq, _, err := trace.CheckFrame("upload", f)
		if err != nil {
			s.met.corruptFrames.Add(1)
			writeErr(w, http.StatusUnprocessableEntity, "corrupt_frame", err.Error())
			return
		}
		if seq != firstSeq+uint32(i) {
			s.met.corruptFrames.Add(1)
			writeErr(w, http.StatusUnprocessableEntity, "corrupt_frame",
				fmt.Sprintf("frame %d carries sequence %d, expected %d (frame lost or reordered)", i, seq, firstSeq+uint32(i)))
			return
		}
	}

	ref, dedup, err := se.w.PutSegment(r.Context(), body, firstSeq)
	if err != nil {
		s.fail(w, err)
		return
	}
	se.byFirst[firstSeq] = ref.Hash
	se.nextSeq += uint32(ref.Frames)
	se.bytes += int64(ref.Bytes)
	s.met.segments.Add(1)
	s.met.frames.Add(uint64(ref.Frames))
	s.met.bytes.Add(uint64(ref.Bytes))
	if dedup {
		s.met.segmentsDeduped.Add(1)
	}
	writeJSON(w, http.StatusOK, putSegmentResponse{Hash: ref.Hash, Frames: ref.Frames, Dedup: dedup})
}

type gapRequest struct {
	Frames uint64 `json:"frames"`
}

func (s *Server) handleGap(w http.ResponseWriter, r *http.Request) {
	se, ok := s.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no_session", "unknown session")
		return
	}
	reqTraceFrom(r.Context()).setTenant(se.meta.Tenant)
	var req gapRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<12)).Decode(&req); err != nil || req.Frames == 0 {
		writeErr(w, http.StatusBadRequest, "bad_request", "body must carry a non-zero frame count")
		return
	}
	se.mu.Lock()
	defer se.mu.Unlock()
	if se.gone {
		writeErr(w, http.StatusNotFound, "no_session", "session is closed")
		return
	}
	if req.Frames > math.MaxUint32-uint64(se.nextSeq) {
		writeErr(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("gap of %d frames overflows the run's 32-bit sequence space", req.Frames))
		return
	}
	if err := se.w.MarkGap(r.Context(), req.Frames); err != nil {
		s.fail(w, err)
		return
	}
	se.nextSeq += uint32(req.Frames)
	s.met.gapFrames.Add(req.Frames)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	se, ok := s.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no_session", "unknown session")
		return
	}
	reqTraceFrom(r.Context()).setTenant(se.meta.Tenant)
	se.mu.Lock()
	defer se.mu.Unlock()
	if se.gone {
		writeErr(w, http.StatusNotFound, "no_session", "session is closed")
		return
	}
	// Commit validates what was persisted: re-read every segment from
	// disk, re-verify hashes, and decode the trace end to end.
	segs, err := se.w.readBack(r.Context())
	if err != nil {
		s.fail(w, err)
		return
	}
	stats := TraceStats{UploadGaps: se.w.GapFrames()}
	if stats.UploadGaps == 0 {
		endDecode := stageTimer(r.Context(), "decode")
		var tr *trace.Trace
		if tr, stats.BodySHA256, err = decodeSegments(segs); err == nil {
			stats.Transactions = tr.TotalTransactions()
			stats.Unrecorded = tr.UnrecordedTransactions()
			stats.LossyPackets = uint64(tr.LossyPackets())
			stats.Replayable = true
		}
		endDecode()
		if err != nil {
			// Every frame passed ingest verification, so an undecodable
			// stream means the trace itself is malformed — reject the
			// commit, keep the session open for the client to abort.
			s.met.corruptFrames.Add(1)
			writeErr(w, http.StatusUnprocessableEntity, "undecodable_trace", err.Error())
			return
		}
	}
	m, err := se.w.Commit(r.Context(), stats)
	if err != nil {
		s.fail(w, err)
		return
	}
	se.gone = true
	s.dropSession(se)
	s.met.sessionsCommitted.Add(1)
	s.met.noteStored(m.Bytes, m.StoredBytes)
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleAbort(w http.ResponseWriter, r *http.Request) {
	se, ok := s.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no_session", "unknown session")
		return
	}
	se.mu.Lock()
	if se.gone {
		se.mu.Unlock()
		writeErr(w, http.StatusNotFound, "no_session", "session is closed")
		return
	}
	se.gone = true
	se.mu.Unlock()
	se.w.Abort()
	s.dropSession(se)
	s.met.sessionsAborted.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// ---- runs and jobs ----

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	ids := s.store.Runs()
	out := make([]*Manifest, 0, len(ids))
	for _, id := range ids {
		if m, ok := s.store.Manifest(id); ok {
			out = append(out, m)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": out})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	m, ok := s.store.Manifest(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no_run", "unknown run")
		return
	}
	writeJSON(w, http.StatusOK, m)
}

type submitJobRequest struct {
	Kind     string `json:"kind"`
	RunID    string `json:"run_id"`
	RefRunID string `json:"ref_run_id,omitempty"`
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req submitJobRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<14)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "body does not parse: "+err.Error())
		return
	}
	reqID := ""
	if rt := reqTraceFrom(r.Context()); rt != nil {
		reqID = rt.id
	}
	j, err := s.jobs.submit(req.Kind, req.RunID, req.RefRunID, reqID)
	if err != nil {
		var ae *AdmissionError
		if errors.As(err, &ae) {
			s.fail(w, err)
			return
		}
		writeErr(w, http.StatusBadRequest, "bad_job", err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, j)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var j *Job
	var err error
	if r.URL.Query().Get("wait") != "" {
		j, err = s.jobs.wait(r.Context(), id)
	} else {
		j, err = s.jobs.get(id)
	}
	switch {
	case errors.Is(err, errJobExpired):
		writeErr(w, http.StatusGone, "job_expired", err.Error())
	case errors.Is(err, errNoJob):
		writeErr(w, http.StatusNotFound, "no_job", err.Error())
	case err != nil:
		s.fail(w, err)
	default:
		writeJSON(w, http.StatusOK, j)
	}
}

func (s *Server) handleRecovery(w http.ResponseWriter, r *http.Request) {
	rec := s.recInfo
	if rec == nil {
		rec = &Recovery{}
	}
	type qjson struct {
		RunID    string `json:"run_id"`
		Artifact string `json:"artifact"`
		Reason   string `json:"reason"`
	}
	qs := make([]qjson, 0, len(rec.Quarantined))
	for _, q := range rec.Quarantined {
		qs = append(qs, qjson{RunID: q.RunID, Artifact: q.Artifact, Reason: q.Reason})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"intact":      rec.Intact,
		"resumable":   rec.Resumable,
		"quarantined": qs,
	})
}

// handleSlow serves the slow-request exemplar ring, slowest first.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"slow": s.slow.list()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.sink.Gather().WritePrometheus(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"breaker":       s.store.Breaker().State(),
		"open_sessions": s.adm.openSessions(),
		"queued_jobs":   s.jobs.queued(),
	})
}
