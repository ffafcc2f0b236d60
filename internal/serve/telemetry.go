package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vidi/internal/telemetry"
)

// Serve-side metrics. The telemetry registry's metric shards are
// single-writer by contract (the simulation loop owns them); an HTTP
// server is anything but single-writer. The bridge is the mirror pattern:
// handlers bump plain atomics, and an OnGather flusher — the only writer
// the shards ever see — folds the accumulated deltas into the registry at
// scrape time. Gauges are computed fresh in the flusher from callbacks.
type metrics struct {
	sink *telemetry.Sink

	flushMu sync.Mutex // serializes flush (concurrent Gathers) and lazy registration

	sessionsOpened    mirror
	sessionsResumed   mirror
	sessionsCommitted mirror
	sessionsAborted   mirror
	segments          mirror
	segmentsDeduped   mirror
	frames            mirror
	bytes             mirror
	gapFrames         mirror
	corruptFrames     mirror
	storeFaults       mirror
	breakerShed       mirror
	admissionRejects  mirror
	jobsDone          mirror
	jobsFailed        mirror
	divergences       mirror
	unrecorded        mirror
	quarantined       mirror

	storedRaw  mirror // raw frame bytes committed (pre-codec)
	storedDisk mirror // on-disk bytes committed (post-codec)

	httpByCode map[string]*mirror // "2xx"... keyed by class; under flushMu

	// Per-endpoint RED instruments, created lazily under flushMu.
	durByEndpoint map[string]*qmirror
	errByEndpoint map[string]*mirror // keyed by endpoint + "\xff" + class

	inFlight atomic.Int64

	// gauge callbacks, read in the flusher
	openSessions func() float64
	breakerState func() float64
	queuedJobs   func() float64

	gSessions    *telemetry.Gauge
	gBreaker     *telemetry.Gauge
	gQueued      *telemetry.Gauge
	gInFlight    *telemetry.Gauge
	gCompression *telemetry.Gauge
}

// mirror pairs a handler-side atomic with its registry counter; flush
// folds the delta so the registry shard stays single-writer.
type mirror struct {
	v    atomic.Uint64
	last uint64 // under metrics.flushMu
	c    *telemetry.Counter
}

func (m *mirror) flush() {
	cur := m.v.Load()
	if d := cur - m.last; d > 0 {
		m.c.Add(d)
	}
	m.last = cur
}

// qmirror stages request-latency samples from concurrent handlers into a
// private quantile histogram; flush — the registry shard's only writer —
// merges the staged samples in and resets the stage. Same single-writer
// contract as mirror, for distributions.
type qmirror struct {
	mu    sync.Mutex
	stage telemetry.QuantileHistogram
	q     *telemetry.QuantileHistogram
}

func (m *qmirror) observe(v float64) {
	m.mu.Lock()
	m.stage.Observe(v)
	m.mu.Unlock()
}

func (m *qmirror) flush() {
	m.mu.Lock()
	m.q.Merge(&m.stage)
	m.stage.Reset()
	m.mu.Unlock()
}

func newMetrics(sink *telemetry.Sink) *metrics {
	m := &metrics{
		sink:          sink,
		httpByCode:    map[string]*mirror{},
		durByEndpoint: map[string]*qmirror{},
		errByEndpoint: map[string]*mirror{},
	}
	reg := func(mr *mirror, name, help string) {
		mr.c = sink.Counter(name, help)
	}
	reg(&m.sessionsOpened, "vidi_serve_sessions_opened_total", "Recording sessions opened.")
	reg(&m.sessionsResumed, "vidi_serve_sessions_resumed_total", "Sessions re-opened against a recovered partial run.")
	reg(&m.sessionsCommitted, "vidi_serve_sessions_committed_total", "Sessions committed with a verified manifest.")
	reg(&m.sessionsAborted, "vidi_serve_sessions_aborted_total", "Sessions aborted or expired before commit.")
	reg(&m.segments, "vidi_serve_segments_total", "Segments accepted into the trace store.")
	reg(&m.segmentsDeduped, "vidi_serve_segments_dedup_total", "Segment uploads satisfied by content-addressed dedup.")
	reg(&m.frames, "vidi_serve_frames_total", "Storage frames accepted.")
	reg(&m.bytes, "vidi_serve_bytes_total", "Frame bytes accepted.")
	reg(&m.gapFrames, "vidi_serve_upload_gap_frames_total", "Frames clients declared lost in transit.")
	reg(&m.corruptFrames, "vidi_serve_corrupt_frames_total", "Uploaded frames rejected by CRC or sequence checks.")
	reg(&m.storeFaults, "vidi_serve_store_faults_total", "Store writes that exhausted their retry budget.")
	reg(&m.breakerShed, "vidi_serve_breaker_shed_total", "Writes shed fast by the open circuit breaker.")
	reg(&m.admissionRejects, "vidi_serve_admission_rejects_total", "Requests rejected by admission control quotas.")
	reg(&m.jobsDone, "vidi_serve_jobs_completed_total", "Replay/compare/diagnose jobs completed.")
	reg(&m.jobsFailed, "vidi_serve_jobs_failed_total", "Jobs that ended in error.")
	reg(&m.divergences, "vidi_serve_divergences_total", "Divergences reported by replay jobs.")
	reg(&m.unrecorded, "vidi_serve_unrecorded_total", "Unrecorded (degraded-gap) transactions reported by replay jobs.")
	reg(&m.quarantined, "vidi_serve_quarantined_total", "Artifacts quarantined by recovery or read verification.")
	reg(&m.storedRaw, "vidi_serve_stored_raw_bytes_total", "Raw frame bytes of committed runs.")
	reg(&m.storedDisk, "vidi_serve_stored_disk_bytes_total", "On-disk segment container bytes of committed runs.")
	m.gSessions = sink.Gauge("vidi_serve_sessions_open", "Currently open recording sessions.")
	m.gBreaker = sink.Gauge("vidi_serve_breaker_state", "Store breaker state: 0 closed, 0.5 half-open, 1 open.")
	m.gQueued = sink.Gauge("vidi_serve_jobs_queued", "Jobs waiting for a worker.")
	m.gInFlight = sink.Gauge("vidi_serve_requests_in_flight", "HTTP requests currently being handled.")
	m.gCompression = sink.Gauge("vidi_serve_compression_ratio", "Raw/stored byte ratio across committed runs (just under 1: segments are stored raw).")
	sink.OnGather(m.flush)
	return m
}

// request records one completed request into the per-endpoint RED
// instruments: a latency sample always, an error counter by status class
// for 4xx/5xx.
func (m *metrics) request(endpoint string, status int, dur time.Duration) {
	if endpoint == "" {
		endpoint = "unmatched"
	}
	m.flushMu.Lock()
	qm, ok := m.durByEndpoint[endpoint]
	if !ok {
		qm = &qmirror{q: m.sink.Quantile("vidi_serve_request_duration_seconds",
			"Request handling latency.", telemetry.L("endpoint", endpoint))}
		m.durByEndpoint[endpoint] = qm
	}
	var em *mirror
	if status >= 400 {
		class := "5xx"
		if status < 500 {
			class = "4xx"
		}
		key := endpoint + "\xff" + class
		if em, ok = m.errByEndpoint[key]; !ok {
			em = &mirror{c: m.sink.Counter("vidi_serve_request_errors_total",
				"Requests that ended in an error status.",
				telemetry.L("endpoint", endpoint), telemetry.L("class", class))}
			m.errByEndpoint[key] = em
		}
	}
	m.flushMu.Unlock()
	qm.observe(dur.Seconds())
	if em != nil {
		em.v.Add(1)
	}
}

// noteStored accounts one committed run's raw and on-disk bytes (the
// compression-ratio gauge's inputs).
func (m *metrics) noteStored(raw, disk uint64) {
	m.storedRaw.v.Add(raw)
	m.storedDisk.v.Add(disk)
}

// httpCode counts one response by status class ("2xx".."5xx").
func (m *metrics) httpCode(status int) {
	class := "other"
	if status >= 100 && status < 600 {
		class = string(rune('0'+status/100)) + "xx"
	}
	m.flushMu.Lock()
	mr, ok := m.httpByCode[class]
	if !ok {
		mr = &mirror{c: m.sink.Counter("vidi_serve_http_responses_total",
			"HTTP responses by status class.", telemetry.L("class", class))}
		m.httpByCode[class] = mr
	}
	m.flushMu.Unlock()
	mr.v.Add(1)
}

// flush runs at Gather time: fold counter deltas, refresh gauges.
func (m *metrics) flush() {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	for _, mr := range []*mirror{
		&m.sessionsOpened, &m.sessionsResumed, &m.sessionsCommitted,
		&m.sessionsAborted, &m.segments, &m.segmentsDeduped, &m.frames,
		&m.bytes, &m.gapFrames, &m.corruptFrames, &m.storeFaults,
		&m.breakerShed, &m.admissionRejects, &m.jobsDone, &m.jobsFailed,
		&m.divergences, &m.unrecorded, &m.quarantined,
	} {
		mr.flush()
	}
	classes := make([]string, 0, len(m.httpByCode))
	for c := range m.httpByCode {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		m.httpByCode[c].flush()
	}
	eps := make([]string, 0, len(m.durByEndpoint))
	for e := range m.durByEndpoint {
		eps = append(eps, e)
	}
	sort.Strings(eps)
	for _, e := range eps {
		m.durByEndpoint[e].flush()
	}
	keys := make([]string, 0, len(m.errByEndpoint))
	for k := range m.errByEndpoint {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m.errByEndpoint[k].flush()
	}
	m.storedRaw.flush()
	m.storedDisk.flush()
	m.gInFlight.Set(float64(m.inFlight.Load()))
	if disk := m.storedDisk.v.Load(); disk > 0 {
		m.gCompression.Set(float64(m.storedRaw.v.Load()) / float64(disk))
	}
	if m.openSessions != nil {
		m.gSessions.Set(m.openSessions())
	}
	if m.breakerState != nil {
		m.gBreaker.Set(m.breakerState())
	}
	if m.queuedJobs != nil {
		m.gQueued.Set(m.queuedJobs())
	}
}
