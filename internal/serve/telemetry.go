package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"vidi/internal/telemetry"
)

// Serve-side metrics. Handlers and job workers count into atomics and
// mutex-guarded histograms that this struct owns, and each is registered
// with the sink as a source that Gather reads under the registry's lock.
// Nothing is staged or folded, so any number of concurrent scrapes read the
// same live values; gauges are read from the server's own state.
type metrics struct {
	sink *telemetry.Sink

	sessionsOpened    atomic.Uint64
	sessionsResumed   atomic.Uint64
	sessionsCommitted atomic.Uint64
	sessionsAborted   atomic.Uint64
	segments          atomic.Uint64
	segmentsDeduped   atomic.Uint64
	frames            atomic.Uint64
	bytes             atomic.Uint64
	gapFrames         atomic.Uint64
	corruptFrames     atomic.Uint64
	storeFaults       atomic.Uint64
	breakerShed       atomic.Uint64
	admissionRejects  atomic.Uint64
	jobsDone          atomic.Uint64
	jobsFailed        atomic.Uint64
	divergences       atomic.Uint64
	unrecorded        atomic.Uint64
	quarantined       atomic.Uint64

	storedRaw  atomic.Uint64 // raw frame bytes committed (pre-codec)
	storedDisk atomic.Uint64 // on-disk bytes committed (post-codec)

	inFlight atomic.Int64

	// Per-label series, registered on first use under mu.
	mu            sync.Mutex
	httpByCode    map[string]*atomic.Uint64 // "2xx"... keyed by class
	durByEndpoint map[string]*latency
	errByEndpoint map[string]*atomic.Uint64 // keyed by endpoint + "\xff" + class
}

// latency is one endpoint's request-duration histogram. Handlers observe
// into it and its QuantileFunc source merges it, both under mu.
type latency struct {
	mu   sync.Mutex
	hist telemetry.QuantileHistogram
}

func (l *latency) observe(v float64) {
	l.mu.Lock()
	l.hist.Observe(v)
	l.mu.Unlock()
}

func (l *latency) read(into *telemetry.QuantileHistogram) {
	l.mu.Lock()
	into.Merge(&l.hist)
	l.mu.Unlock()
}

func newMetrics(sink *telemetry.Sink) *metrics {
	m := &metrics{
		sink:          sink,
		httpByCode:    map[string]*atomic.Uint64{},
		durByEndpoint: map[string]*latency{},
		errByEndpoint: map[string]*atomic.Uint64{},
	}
	sink.CounterFunc("vidi_serve_sessions_opened_total", "Recording sessions opened.", m.sessionsOpened.Load)
	sink.CounterFunc("vidi_serve_sessions_resumed_total", "Sessions re-opened against a recovered partial run.", m.sessionsResumed.Load)
	sink.CounterFunc("vidi_serve_sessions_committed_total", "Sessions committed with a verified manifest.", m.sessionsCommitted.Load)
	sink.CounterFunc("vidi_serve_sessions_aborted_total", "Sessions aborted or expired before commit.", m.sessionsAborted.Load)
	sink.CounterFunc("vidi_serve_segments_total", "Segments accepted into the trace store.", m.segments.Load)
	sink.CounterFunc("vidi_serve_segments_dedup_total", "Segment uploads satisfied by content-addressed dedup.", m.segmentsDeduped.Load)
	sink.CounterFunc("vidi_serve_frames_total", "Storage frames accepted.", m.frames.Load)
	sink.CounterFunc("vidi_serve_bytes_total", "Frame bytes accepted.", m.bytes.Load)
	sink.CounterFunc("vidi_serve_upload_gap_frames_total", "Frames clients declared lost in transit.", m.gapFrames.Load)
	sink.CounterFunc("vidi_serve_corrupt_frames_total", "Uploaded frames rejected by CRC or sequence checks.", m.corruptFrames.Load)
	sink.CounterFunc("vidi_serve_store_faults_total", "Store writes that exhausted their retry budget.", m.storeFaults.Load)
	sink.CounterFunc("vidi_serve_breaker_shed_total", "Writes shed fast by the open circuit breaker.", m.breakerShed.Load)
	sink.CounterFunc("vidi_serve_admission_rejects_total", "Requests rejected by admission control quotas.", m.admissionRejects.Load)
	sink.CounterFunc("vidi_serve_jobs_completed_total", "Replay/compare/diagnose jobs completed.", m.jobsDone.Load)
	sink.CounterFunc("vidi_serve_jobs_failed_total", "Jobs that ended in error.", m.jobsFailed.Load)
	sink.CounterFunc("vidi_serve_divergences_total", "Divergences reported by replay jobs.", m.divergences.Load)
	sink.CounterFunc("vidi_serve_unrecorded_total", "Unrecorded (degraded-gap) transactions reported by replay jobs.", m.unrecorded.Load)
	sink.CounterFunc("vidi_serve_quarantined_total", "Artifacts quarantined by recovery or read verification.", m.quarantined.Load)
	sink.CounterFunc("vidi_serve_stored_raw_bytes_total", "Raw frame bytes of committed runs.", m.storedRaw.Load)
	sink.CounterFunc("vidi_serve_stored_disk_bytes_total", "On-disk segment container bytes of committed runs.", m.storedDisk.Load)
	sink.GaugeFunc("vidi_serve_requests_in_flight", "HTTP requests currently being handled.",
		func() float64 { return float64(m.inFlight.Load()) })
	sink.GaugeFunc("vidi_serve_compression_ratio", "Raw/stored byte ratio across committed runs (just under 1: segments are stored raw).",
		func() float64 {
			disk := m.storedDisk.Load()
			if disk == 0 {
				return 0
			}
			return float64(m.storedRaw.Load()) / float64(disk)
		})
	return m
}

// request records one completed request into the per-endpoint RED
// instruments: a latency sample always, an error counter by status class
// for 4xx/5xx.
func (m *metrics) request(endpoint string, status int, dur time.Duration) {
	if endpoint == "" {
		endpoint = "unmatched"
	}
	m.mu.Lock()
	lat, ok := m.durByEndpoint[endpoint]
	if !ok {
		lat = &latency{}
		m.sink.QuantileFunc("vidi_serve_request_duration_seconds",
			"Request handling latency.", lat.read, telemetry.L("endpoint", endpoint))
		m.durByEndpoint[endpoint] = lat
	}
	var errs *atomic.Uint64
	if status >= 400 {
		class := "5xx"
		if status < 500 {
			class = "4xx"
		}
		key := endpoint + "\xff" + class
		if errs, ok = m.errByEndpoint[key]; !ok {
			errs = new(atomic.Uint64)
			m.sink.CounterFunc("vidi_serve_request_errors_total",
				"Requests that ended in an error status.", errs.Load,
				telemetry.L("endpoint", endpoint), telemetry.L("class", class))
			m.errByEndpoint[key] = errs
		}
	}
	m.mu.Unlock()
	lat.observe(dur.Seconds())
	if errs != nil {
		errs.Add(1)
	}
}

// noteStored accounts one committed run's raw and on-disk bytes (the
// compression-ratio gauge's inputs).
func (m *metrics) noteStored(raw, disk uint64) {
	m.storedRaw.Add(raw)
	m.storedDisk.Add(disk)
}

// httpCode counts one response by status class ("2xx".."5xx").
func (m *metrics) httpCode(status int) {
	class := "other"
	if status >= 100 && status < 600 {
		class = string(rune('0'+status/100)) + "xx"
	}
	m.mu.Lock()
	n, ok := m.httpByCode[class]
	if !ok {
		n = new(atomic.Uint64)
		m.sink.CounterFunc("vidi_serve_http_responses_total",
			"HTTP responses by status class.", n.Load, telemetry.L("class", class))
		m.httpByCode[class] = n
	}
	m.mu.Unlock()
	n.Add(1)
}
