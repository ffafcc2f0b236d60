package serve

import (
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"vidi/internal/trace"
)

// Trace-store layout, one directory per run under the store root
// (artifacts/<run_id>/ in a deployment):
//
//	<root>/<run_id>/log                fsync'd append-only run log
//	<root>/<run_id>/manifest.json      integrity manifest, written at commit
//	<root>/<run_id>/quarantine/        damaged log tails copied aside
//	<root>/.quarantine/<run_id>...     whole runs recovery refused to trust
//
// The log holds the run's lifecycle (open, gap, commit) and one CRC'd,
// content-hashed record per unique segment, each fsync'd before it is
// acknowledged. So recovery can classify any crash point: a torn final
// record fails its CRC and is cut off, intact records re-verify by hash,
// and an uncommitted run resumes from them instead of serving a partial
// trace.

// RunMeta is the replay identity of an uploaded run: everything a worker
// needs to re-execute it.
type RunMeta struct {
	Tenant string `json:"tenant"`
	App    string `json:"app"`
	Scale  int    `json:"scale"`
	Seed   int64  `json:"seed"`
}

// SegmentRef is one content-addressed segment in stream order.
type SegmentRef struct {
	// Hash is the sha256 of the segment's raw frame bytes. Identical
	// content dedupes to one segment record in the run log.
	Hash string `json:"hash"`
	// Bytes is the segment length (a multiple of the storage frame size).
	Bytes int `json:"bytes"`
	// Frames is Bytes / trace.StoragePacketSize.
	Frames int `json:"frames"`
	// FirstSeq is the storage-frame sequence number of the segment's first
	// frame within the run's stream.
	FirstSeq uint32 `json:"first_seq"`
}

// Manifest is the committed integrity record of a run: the only thing the
// service ever trusts about stored bytes.
type Manifest struct {
	Version int    `json:"version"`
	RunID   string `json:"run_id"`
	RunMeta
	Segments []SegmentRef `json:"segments"`
	// Frames/Bytes total the stored stream.
	Frames uint64 `json:"frames"`
	Bytes  uint64 `json:"bytes"`
	// BodySHA256 is the hash of the deframed trace body — an end-to-end
	// check spanning frame reassembly, not just per-segment integrity.
	BodySHA256 string `json:"body_sha256"`
	// Transactions/Unrecorded/LossyPackets account the decoded trace.
	// Unrecorded > 0 marks a degraded recording: the trace carries gap
	// markers, replay stays exact and divergence detection must report
	// exactly this many transactions as unrecorded.
	Transactions uint64 `json:"transactions"`
	Unrecorded   uint64 `json:"unrecorded"`
	LossyPackets uint64 `json:"lossy_packets"`
	// UploadGapFrames counts frames the client declared lost in transit.
	// Such a run is preserved and listable but not replayable — the frame
	// stream has holes, so serving it as a trace would mis-decode.
	UploadGapFrames uint64 `json:"upload_gap_frames,omitempty"`
	// Replayable reports whether the stored stream decodes to a valid
	// trace (false for upload-gapped runs).
	Replayable bool `json:"replayable"`
	// StoredBytes totals the stored (codec container) lengths of the
	// run's unique segment records, headers excluded; CompressionRatio is
	// Bytes/StoredBytes. Segments are written raw, so the ratio sits just
	// under 1 unless dedup or a resumed legacy flate record lifts it.
	StoredBytes      uint64  `json:"stored_bytes,omitempty"`
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
}

// Degraded reports whether the run carries gap markers of either kind.
func (m *Manifest) Degraded() bool { return m.Unrecorded > 0 || m.UploadGapFrames > 0 }

// TraceStats is the commit-time accounting of the decoded trace.
type TraceStats struct {
	Transactions uint64
	Unrecorded   uint64
	LossyPackets uint64
	BodySHA256   string
	Replayable   bool
	UploadGaps   uint64
}

// CorruptRunError reports stored bytes that failed an integrity check. It
// wraps trace.ErrCorrupt: detected corruption is the same typed condition
// whether it is caught in transit or at rest.
type CorruptRunError struct {
	RunID    string
	Artifact string
	Reason   string
}

// Error implements error.
func (e *CorruptRunError) Error() string {
	return fmt.Sprintf("serve: run %s: corrupt %s: %s", e.RunID, e.Artifact, e.Reason)
}

// Unwrap keeps errors.Is(err, trace.ErrCorrupt) working.
func (e *CorruptRunError) Unwrap() error { return trace.ErrCorrupt }

// Quarantine is one artifact the recovery scan refused to trust.
type Quarantine struct {
	RunID    string
	Artifact string // "run", "manifest", "log", or a segment hash
	Reason   string
}

// Recovery is the report of a store-open scan.
type Recovery struct {
	// Intact lists committed runs whose manifest and every segment
	// re-verified by hash.
	Intact []string
	// Resumable lists uncommitted runs with verified partial uploads; a
	// client may re-open the run and continue (already-durable segments
	// dedupe by content hash).
	Resumable []string
	// Quarantined lists everything moved aside.
	Quarantined []Quarantine
}

// String renders the report.
func (r *Recovery) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery: %d intact, %d resumable, %d quarantined",
		len(r.Intact), len(r.Resumable), len(r.Quarantined))
	for _, q := range r.Quarantined {
		fmt.Fprintf(&b, "\n  quarantined %s/%s: %s", q.RunID, q.Artifact, q.Reason)
	}
	return b.String()
}

// StoreOptions tunes the store's hardened write path.
type StoreOptions struct {
	// JitterSeed seeds the deterministic retry jitter (0 picks a fixed
	// default so tests are reproducible by default).
	JitterSeed int64
	// MaxRetries bounds attempts per write (0 selects 4).
	MaxRetries int
	// BackoffBase is the initial retry delay (0 selects 2ms).
	BackoffBase time.Duration
	// BreakerThreshold / BreakerCooldown configure the write-path circuit
	// breaker (zeros select 3 failures / 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// Store is the crash-safe, content-addressed trace store.
type Store struct {
	root    string
	retr    *retrier
	breaker *Breaker

	// FaultFn, when set, injects write-path faults: it is consulted before
	// every durable operation with the operation name and may return an
	// error to fail that attempt (the chaos harness's disk hook —
	// mirroring core.Store.FaultFn). Retries re-consult it, so a transient
	// fault heals and a sustained one escalates through the breaker.
	FaultFn func(op string) error

	mu   sync.Mutex
	runs map[string]*runState
}

type runState struct {
	manifest *Manifest   // non-nil once committed and verified
	partial  *partialRun // non-nil for resumable uncommitted runs
	writer   *RunWriter  // non-nil while a session writes
	gone     string      // non-empty: quarantined, with reason
}

type partialRun struct {
	meta RunMeta
	segs map[string]int // intact log records: hash → stored length
	size int64          // length of the intact run log
}

// OpenStore opens (or creates) a store rooted at root and runs the
// recovery scan: run logs are replayed, torn writes quarantined, committed
// manifests re-verified hash by hash. The store never serves bytes the
// scan did not vouch for.
func OpenStore(root string, opts StoreOptions) (*Store, *Recovery, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, nil, err
	}
	br := &Breaker{Threshold: opts.BreakerThreshold, Cooldown: opts.BreakerCooldown}
	seed := opts.JitterSeed
	if seed == 0 {
		seed = 0x51d1
	}
	st := &Store{
		root:    root,
		breaker: br,
		retr:    newRetrier(seed, opts.MaxRetries, opts.BackoffBase, br),
		runs:    map[string]*runState{},
	}
	rec, err := st.recover()
	if err != nil {
		return nil, nil, err
	}
	return st, rec, nil
}

// Breaker exposes the write-path breaker (for telemetry and tests).
func (st *Store) Breaker() *Breaker { return st.breaker }

// Root returns the store root directory.
func (st *Store) Root() string { return st.root }

func (st *Store) runDir(runID string) string  { return filepath.Join(st.root, runID) }
func (st *Store) logPath(runID string) string { return filepath.Join(st.runDir(runID), "log") }

// validRunID restricts run ids to a path-safe charset.
func validRunID(id string) bool {
	if id == "" || len(id) > 128 || strings.HasPrefix(id, ".") {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// validLabel is the API's check on tenant and app names and client request
// ids: a printable, whitespace-free charset, so they render unambiguously
// in metrics labels and logs.
func validLabel(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case strings.ContainsRune("-_.:@/+", c):
		default:
			return false
		}
	}
	return true
}

func hashBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// ---- storage codec ----

// A segment record's payload is "VZS0" + the raw frame bytes, as every
// segment is written, or "VZS1" + a flate stream, which older stores wrote
// and which is still read. SegmentRef.Hash is the sha256 of the raw frames
// either way, so dedup, manifests and the HTTP API never see the container.

var (
	segMagicFlate = []byte("VZS1")
	segMagicRaw   = []byte("VZS0")
)

// segmentRecord encodes the run log record of one segment in a single
// buffer: record header, raw container magic, frame bytes.
func segmentRecord(sum [sha256.Size]byte, raw []byte) []byte {
	rec := make([]byte, 0, logHeaderSize+len(segMagicRaw)+len(raw))
	return appendRecord(rec, recSegment, sum, segMagicRaw, raw)
}

// decodeSegment recovers the raw frame bytes from a stored container.
func decodeSegment(stored []byte) ([]byte, error) {
	switch {
	case bytes.HasPrefix(stored, segMagicFlate):
		zr := flate.NewReader(bytes.NewReader(stored[len(segMagicFlate):]))
		raw, err := io.ReadAll(zr)
		if cerr := zr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("segment codec: %w", err)
		}
		return raw, nil
	case bytes.HasPrefix(stored, segMagicRaw):
		return stored[len(segMagicRaw):], nil
	default:
		return nil, errors.New("segment codec: unknown container magic")
	}
}

// ---- run log ----

// A run log record is magic | payload length (u32 BE) |
// crc32(sum‖payload) (u32 BE) | sum | payload, and the magic names its
// kind:
//
//	VSL1  segment  payload: a codec container (VZS0 when written); sum: sha256(raw frames)
//	VSLO  open     payload: the RunMeta as JSON
//	VSLG  gap      payload: the declared lost frame count (u64 BE)
//	VSLC  commit   payload: sha256(manifest.json)
//
// Every kind but a segment is its own content, so its sum is
// sha256(payload). The CRC catches a torn or rotted record; the sum is
// re-checked against the content.
type recKind uint8

const (
	recSegment recKind = iota
	recOpen
	recGap
	recCommit
)

var recMagic = [...]string{recSegment: "VSL1", recOpen: "VSLO", recGap: "VSLG", recCommit: "VSLC"}

const logHeaderSize = 4 + 4 + 4 + sha256.Size

// appendRecord appends one run log record to dst; the payload is the
// concatenation of parts.
func appendRecord(dst []byte, kind recKind, sum [sha256.Size]byte, parts ...[]byte) []byte {
	hdr := len(dst)
	dst = append(append(dst, recMagic[kind]...), make([]byte, 8)...) // length and CRC, set below
	dst = append(dst, sum[:]...)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	payload := dst[hdr+logHeaderSize:]
	binary.BigEndian.PutUint32(dst[hdr+4:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[hdr+8:], recordCRC(sum, payload))
	return dst
}

// lifecycleRecord encodes an open, gap or commit record.
func lifecycleRecord(kind recKind, payload []byte) []byte {
	return appendRecord(make([]byte, 0, logHeaderSize+len(payload)), kind, sha256.Sum256(payload), payload)
}

func recordCRC(sum [sha256.Size]byte, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(sum[:]), crc32.IEEETable, payload)
}

// logRecord is one verified run log record.
type logRecord struct {
	kind    recKind
	sum     [sha256.Size]byte
	payload []byte  // aliasing the scanned log
	raw     []byte  // the content sum hashes: decoded frame bytes for a segment, else the payload
	meta    RunMeta // open records only
}

// scanLog verifies a run log up to its first damaged record. It returns
// the intact records, the intact prefix length, and why the next record is
// damaged ("" when the whole log is intact).
func scanLog(data []byte) (recs []logRecord, off int, damage string) {
	off, damage = walkLog(data, func(rec logRecord) { recs = append(recs, rec) })
	return recs, off, damage
}

// walkLog is scanLog passing each intact record to fn instead of
// collecting them.
func walkLog(data []byte, fn func(logRecord)) (off int, damage string) {
	for off < len(data) {
		rec, bad := parseRecord(data[off:])
		if bad != "" {
			return off, fmt.Sprintf("record at offset %d: %s", off, bad)
		}
		fn(rec)
		off += logHeaderSize + len(rec.payload)
	}
	return off, ""
}

// parseRecord verifies the record at the start of b, or says why it is
// damaged.
func parseRecord(b []byte) (rec logRecord, damage string) {
	if len(b) < logHeaderSize {
		return rec, "header cut short (torn write)"
	}
	kind := -1
	for k, m := range recMagic {
		if string(b[:4]) == m {
			kind = k
		}
	}
	if kind < 0 {
		return rec, "bad record magic"
	}
	rec.kind = recKind(kind)
	n := uint64(binary.BigEndian.Uint32(b[4:8]))
	if n > uint64(len(b)-logHeaderSize) {
		return rec, "record runs past the end of the log (torn write)"
	}
	copy(rec.sum[:], b[12:logHeaderSize])
	rec.payload = b[logHeaderSize : logHeaderSize+int(n)]
	if recordCRC(rec.sum, rec.payload) != binary.BigEndian.Uint32(b[8:12]) {
		return rec, "CRC mismatch"
	}
	rec.raw = rec.payload
	if rec.kind == recSegment {
		raw, err := decodeSegment(rec.payload)
		if err != nil {
			return rec, err.Error()
		}
		rec.raw = raw
	}
	if sha256.Sum256(rec.raw) != rec.sum {
		return rec, "content hash mismatch"
	}
	switch rec.kind {
	case recOpen:
		if err := json.Unmarshal(rec.raw, &rec.meta); err != nil {
			return rec, "open record: " + err.Error()
		}
	case recGap:
		if len(rec.raw) != 8 {
			return rec, "gap record is not a u64 frame count"
		}
	case recCommit:
		if len(rec.raw) != sha256.Size {
			return rec, "commit record is not a sha256"
		}
	}
	return rec, ""
}

// appendLog durably appends the record encode returns: one write at the
// end of the last durable record and an fsync, behind the retrier under
// op. A failed attempt truncates back to the durable end, so a retry
// leaves exactly one record. It returns the record's length.
func (w *RunWriter) appendLog(ctx context.Context, op string, encode func() []byte) (int, error) {
	var rec []byte
	err := w.st.retr.do(ctx, op, func() error {
		if rec == nil { // encoded on the first attempt: an open breaker sheds for free
			rec = encode()
		}
		err := w.st.fault(op)
		if err == nil {
			_, err = w.log.WriteAt(rec, w.logSize)
		}
		if err == nil {
			err = w.log.Sync()
		}
		if err != nil { // the retry starts on a record boundary
			_ = w.log.Truncate(w.logSize)
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	w.logSize += int64(len(rec))
	return len(rec), nil
}

func (st *Store) fault(op string) error {
	if st.FaultFn != nil {
		return st.FaultFn(op)
	}
	return nil
}

// ---- writing ----

// RunWriter is one session's handle on an in-flight run.
type RunWriter struct {
	st    *Store
	runID string
	meta  RunMeta

	mu      sync.Mutex
	log     *os.File
	logSize int64 // end of the last durable record
	refs    []SegmentRef
	durable map[string]int // hash → stored length (incl. resumed)
	gaps    uint64
	frames  uint64
	bytes   uint64
	closed  bool
}

// Begin opens a writer for runID. A committed or quarantined run refuses;
// a resumable run (crash recovery) re-opens with its intact segments
// available for content-addressed dedup — the client re-uploads from
// sequence zero and already-durable segments cost no disk writes.
func (st *Store) Begin(ctx context.Context, runID string, meta RunMeta) (*RunWriter, error) {
	if !validRunID(runID) {
		return nil, fmt.Errorf("serve: invalid run id %q", runID)
	}
	// The open record holds the metadata as JSON, which would rewrite
	// invalid UTF-8 and break the resume match after a restart.
	if !utf8.ValidString(meta.Tenant) || !utf8.ValidString(meta.App) {
		return nil, fmt.Errorf("serve: run %s metadata is not valid UTF-8", runID)
	}
	st.mu.Lock()
	rs := st.runs[runID]
	if rs == nil {
		rs = &runState{}
		st.runs[runID] = rs
	}
	switch {
	case rs.gone != "":
		st.mu.Unlock()
		return nil, fmt.Errorf("serve: run %s is quarantined: %s", runID, rs.gone)
	case rs.manifest != nil:
		st.mu.Unlock()
		return nil, fmt.Errorf("serve: run %s is already committed", runID)
	case rs.writer != nil:
		st.mu.Unlock()
		return nil, fmt.Errorf("serve: run %s has an active writer", runID)
	}
	var resume *partialRun
	if rs.partial != nil {
		if rs.partial.meta != meta {
			st.mu.Unlock()
			return nil, fmt.Errorf("serve: run %s resume metadata mismatch", runID)
		}
		resume = rs.partial
	}
	w := &RunWriter{st: st, runID: runID, meta: meta, durable: map[string]int{}}
	rs.writer = w
	st.mu.Unlock()

	if resume != nil {
		w.durable, w.logSize = maps.Clone(resume.segs), resume.size
	}
	// The directory fsyncs make the run's entries durable before any
	// segment is acknowledged: the run directory holds the log, the root
	// holds the run directory.
	dir := st.runDir(runID)
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		w.log, err = os.OpenFile(st.logPath(runID), os.O_CREATE|os.O_WRONLY, 0o644)
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err == nil {
		err = syncDir(st.root)
	}
	if err == nil {
		_, err = w.appendLog(ctx, "open write", func() []byte {
			payload, _ := json.Marshal(meta) // strings and integers always marshal
			return lifecycleRecord(recOpen, payload)
		})
	}
	if err != nil {
		w.log.Close() // (*os.File).Close tolerates nil
		st.mu.Lock()
		rs.writer = nil
		st.mu.Unlock()
		return nil, err
	}
	return w, nil
}

// PutSegment durably stores one segment of storage frames: one record
// appended to the run log and fsync'd, skipped when the content hash
// is already durable. The returned ref joins the stream order; the bool
// reports content-addressed dedup (the bytes were already durable — e.g.
// recovered from a crashed session and re-uploaded on resume).
func (w *RunWriter) PutSegment(ctx context.Context, data []byte, firstSeq uint32) (SegmentRef, bool, error) {
	if len(data) == 0 || len(data)%trace.StoragePacketSize != 0 {
		return SegmentRef{}, false, fmt.Errorf("serve: segment length %d is not a whole number of frames", len(data))
	}
	sum := sha256.Sum256(data)
	ref := SegmentRef{
		Hash:     hex.EncodeToString(sum[:]),
		Bytes:    len(data),
		Frames:   len(data) / trace.StoragePacketSize,
		FirstSeq: firstSeq,
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return SegmentRef{}, false, fmt.Errorf("serve: run %s writer is closed", w.runID)
	}
	_, dedup := w.durable[ref.Hash]
	if !dedup {
		endWrite := stageTimer(ctx, "write")
		n, err := w.appendLog(ctx, "segment write", func() []byte { return segmentRecord(sum, data) })
		endWrite()
		if err != nil {
			return SegmentRef{}, false, err
		}
		w.durable[ref.Hash] = n - logHeaderSize
	}
	w.refs = append(w.refs, ref)
	w.frames += uint64(ref.Frames)
	w.bytes += uint64(ref.Bytes)
	return ref, dedup, nil
}

// MarkGap logs frames the client permanently failed to deliver. The
// run commits as degraded and unreplayable — preserved, never served as
// an intact trace.
func (w *RunWriter) MarkGap(ctx context.Context, frames uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("serve: run %s writer is closed", w.runID)
	}
	if _, err := w.appendLog(ctx, "gap write", func() []byte {
		return lifecycleRecord(recGap, binary.BigEndian.AppendUint64(nil, frames))
	}); err != nil {
		return err
	}
	w.gaps += frames
	return nil
}

// GapFrames returns the declared in-transit loss so far.
func (w *RunWriter) GapFrames() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gaps
}

// ReadBack re-reads every stored segment from disk in stream order,
// verifying every record — commit validates what was persisted, not what
// the handler held in memory.
func (w *RunWriter) ReadBack(ctx context.Context) ([]byte, error) {
	segs, err := w.readBack(ctx)
	if err != nil {
		return nil, err
	}
	return bytes.Join(segs, nil), nil
}

// readBack is ReadBack without joining the segments: each aliases the log
// as read from disk.
func (w *RunWriter) readBack(ctx context.Context) ([][]byte, error) {
	w.mu.Lock()
	refs := append([]SegmentRef(nil), w.refs...)
	w.mu.Unlock()
	defer stageTimer(ctx, "readback")()
	return w.st.segments(w.runID, refs)
}

// segments verifies a run's log and returns the raw frame bytes of refs in
// order. Each aliases the one buffer the log was read into, so nothing is
// copied. Damage past the records refs need is not the run's: an append in
// flight, or a refused one the next append overwrites.
func (st *Store) segments(runID string, refs []SegmentRef) ([][]byte, error) {
	data, err := os.ReadFile(st.logPath(runID))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, &CorruptRunError{RunID: runID, Artifact: "log",
				Reason: "run log missing: " + err.Error()}
		}
		// A read failure that is not verified damage (fd exhaustion, a
		// momentary I/O error) must stay retryable: it is the caller's
		// 503, never grounds to quarantine an intact committed run.
		return nil, &StoreFaultError{Op: "segment read", Err: err}
	}
	raws := make(map[string][]byte, len(refs))
	_, damage := walkLog(data, func(r logRecord) {
		if r.kind == recSegment {
			raws[hex.EncodeToString(r.sum[:])] = r.raw
		}
	})
	out := make([][]byte, len(refs))
	for i, ref := range refs {
		raw, ok := raws[ref.Hash]
		if !ok && damage != "" {
			return nil, &CorruptRunError{RunID: runID, Artifact: "log", Reason: damage}
		}
		if !ok {
			return nil, &CorruptRunError{RunID: runID, Artifact: ref.Hash, Reason: "segment missing from the log"}
		}
		out[i] = raw
	}
	return out, nil
}

// Commit seals the run: manifest written + fsync'd, its hash appended to
// the log as the commit record, the log closed. After Commit the run is
// immutable and servable.
func (w *RunWriter) Commit(ctx context.Context, stats TraceStats) (*Manifest, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, fmt.Errorf("serve: run %s writer is closed", w.runID)
	}
	m := &Manifest{
		Version:         1,
		RunID:           w.runID,
		RunMeta:         w.meta,
		Segments:        append([]SegmentRef(nil), w.refs...),
		Frames:          w.frames,
		Bytes:           w.bytes,
		BodySHA256:      stats.BodySHA256,
		Transactions:    stats.Transactions,
		Unrecorded:      stats.Unrecorded,
		LossyPackets:    stats.LossyPackets,
		UploadGapFrames: w.gaps,
		Replayable:      stats.Replayable && w.gaps == 0,
	}
	var storedBytes uint64
	for _, n := range w.durable {
		storedBytes += uint64(n)
	}
	m.StoredBytes = storedBytes
	if storedBytes > 0 {
		m.CompressionRatio = float64(w.bytes) / float64(storedBytes)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	path := filepath.Join(w.st.runDir(w.runID), "manifest.json")
	endManifest := stageTimer(ctx, "manifest")
	err = w.st.retr.do(ctx, "manifest write", func() error {
		if err := w.st.fault("manifest write"); err != nil {
			return err
		}
		return atomicWrite(path, data)
	})
	endManifest()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	if _, err := w.appendLog(ctx, "commit write", func() []byte { return lifecycleRecord(recCommit, sum[:]) }); err != nil {
		return nil, err
	}
	w.closed = true
	w.log.Close()

	w.st.mu.Lock()
	rs := w.st.runs[w.runID]
	rs.manifest = m
	rs.partial = nil
	rs.writer = nil
	w.st.mu.Unlock()
	return m, nil
}

// Abort releases the writer without committing. Durable segments stay on
// disk; the run is resumable (recovery semantics) until committed.
func (w *RunWriter) Abort() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.log.Close()
	partial := &partialRun{meta: w.meta, segs: w.durable, size: w.logSize}
	w.mu.Unlock()

	w.st.mu.Lock()
	rs := w.st.runs[w.runID]
	if rs != nil && rs.manifest == nil {
		rs.partial = partial
		rs.writer = nil
	}
	w.st.mu.Unlock()
}

// ---- reading ----

// Manifest returns a committed, verified run's manifest.
func (st *Store) Manifest(runID string) (*Manifest, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rs := st.runs[runID]
	if rs == nil || rs.manifest == nil {
		return nil, false
	}
	return rs.manifest, true
}

// Runs lists committed run ids, sorted.
func (st *Store) Runs() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []string
	for id, rs := range st.runs {
		if rs.manifest != nil {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// ReadFrames returns a committed run's storage frames, fully re-verified:
// every segment record's CRC and content hash, plus the manifest's
// end-to-end body hash after deframing in the caller. A failed check
// quarantines the run in memory so it is never served again, and returns a
// typed error wrapping trace.ErrCorrupt. The frames are the one copy made
// of the bytes read from disk.
func (st *Store) ReadFrames(ctx context.Context, runID string) ([][trace.StoragePacketSize]byte, *Manifest, error) {
	segs, m, err := st.readRun(runID)
	if err != nil {
		return nil, nil, err
	}
	frames := make([][trace.StoragePacketSize]byte, 0, streamLen(segs)/trace.StoragePacketSize)
	eachFrame(segs, func(f *[trace.StoragePacketSize]byte) error {
		frames = append(frames, *f)
		return nil
	})
	return frames, m, nil
}

// readRun returns a committed run's manifest and its verified segments,
// aliasing the log as read, and quarantines the run on verified damage.
func (st *Store) readRun(runID string) ([][]byte, *Manifest, error) {
	m, ok := st.Manifest(runID)
	if !ok {
		return nil, nil, fmt.Errorf("serve: unknown run %s", runID)
	}
	segs, err := st.segments(runID, m.Segments)
	if err == nil {
		if werr := wholeFrames(segs); werr != nil {
			err = &CorruptRunError{RunID: runID, Artifact: "stream", Reason: werr.Error()}
		}
	}
	var ce *CorruptRunError
	if errors.As(err, &ce) {
		st.quarantineRun(runID, ce.Reason)
	}
	if err != nil {
		return nil, nil, err
	}
	return segs, m, nil
}

// wholeFrames checks that every segment is a whole number of storage
// frames, as ingest accepts them.
func wholeFrames(segs [][]byte) error {
	for i, s := range segs {
		if len(s)%trace.StoragePacketSize != 0 {
			return fmt.Errorf("segment %d length %d is not a whole number of frames", i, len(s))
		}
	}
	return nil
}

// streamLen is the byte length of the stream segs concatenate.
func streamLen(segs [][]byte) int {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	return n
}

// eachFrame calls fn on every storage frame of segs, whole-frame
// segments, in stream order, in place.
func eachFrame(segs [][]byte, fn func(*[trace.StoragePacketSize]byte) error) error {
	for _, seg := range segs {
		for ; len(seg) > 0; seg = seg[trace.StoragePacketSize:] {
			if err := fn((*[trace.StoragePacketSize]byte)(seg)); err != nil {
				return err
			}
		}
	}
	return nil
}

// framesFromBytes reslices a raw byte stream into storage frames.
func framesFromBytes(b []byte) ([][trace.StoragePacketSize]byte, error) {
	if len(b)%trace.StoragePacketSize != 0 {
		return nil, fmt.Errorf("stream length %d is not a whole number of frames", len(b))
	}
	out := make([][trace.StoragePacketSize]byte, len(b)/trace.StoragePacketSize)
	for i := range out {
		copy(out[i][:], b[i*trace.StoragePacketSize:])
	}
	return out, nil
}

// decodeSegments deframes a run's stream straight from its segments, the
// one copy of its bytes, decodes it, and returns the hex sha256 of its
// body, which trace.FromBytes accepts only if the trace re-encodes to it.
func decodeSegments(segs [][]byte) (*trace.Trace, string, error) {
	if err := wholeFrames(segs); err != nil {
		return nil, "", err
	}
	body := make([]byte, 0, streamLen(segs)/trace.StoragePacketSize*trace.FramePayloadSize)
	var d trace.Deframer
	err := eachFrame(segs, func(f *[trace.StoragePacketSize]byte) (err error) {
		body, err = d.Append(body, f)
		return err
	})
	if err != nil {
		return nil, "", err
	}
	tr, err := trace.FromBytes(body)
	if err != nil {
		return nil, "", err
	}
	return tr, hashBytes(body), nil
}

// framesToBytes flattens storage frames into the raw stream.
func framesToBytes(frames [][trace.StoragePacketSize]byte) []byte {
	out := make([]byte, 0, len(frames)*trace.StoragePacketSize)
	for i := range frames {
		out = append(out, frames[i][:]...)
	}
	return out
}

// quarantineRun moves a run's directory under <root>/.quarantine and marks
// it unusable in memory.
func (st *Store) quarantineRun(runID, reason string) {
	st.mu.Lock()
	rs := st.runs[runID]
	if rs == nil {
		rs = &runState{}
		st.runs[runID] = rs
	}
	rs.manifest = nil
	rs.partial = nil
	rs.gone = reason
	st.mu.Unlock()

	qdir := filepath.Join(st.root, ".quarantine")
	_ = os.MkdirAll(qdir, 0o755)
	dst := filepath.Join(qdir, runID)
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", runID, i))
	}
	_ = os.Rename(st.runDir(runID), dst)
}

// ---- recovery ----

// recover scans every run directory, replays its log and classifies the
// run. It returns an error only for store-level failures (unreadable
// root); per-run damage is quarantined and reported, never fatal.
func (st *Store) recover() (*Recovery, error) {
	rec := &Recovery{}
	entries, err := os.ReadDir(st.root)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		st.recoverRun(e.Name(), rec)
	}
	sort.Strings(rec.Intact)
	sort.Strings(rec.Resumable)
	return rec, nil
}

func (st *Store) recoverRun(runID string, rec *Recovery) {
	dir := st.runDir(runID)
	condemn := func(artifact, reason string) {
		rec.Quarantined = append(rec.Quarantined, Quarantine{RunID: runID, Artifact: artifact, Reason: reason})
		st.quarantineRun(runID, reason)
	}

	if _, err := os.Stat(filepath.Join(dir, "journal")); err == nil {
		condemn("run", preLogLayout)
		return
	}
	recs, size, damaged, fail := st.recoverLog(runID, rec)
	switch {
	case fail != "":
		condemn("log", fail)
		return
	case len(recs) == 0 || recs[0].kind != recOpen:
		// The run recorded nothing durably: nothing in it can be trusted.
		condemn("log", "no leading open record")
		return
	}
	segs := make(map[string]int, len(recs))
	var commit []byte
	for _, r := range recs {
		switch r.kind {
		case recSegment:
			segs[hex.EncodeToString(r.sum[:])] = len(r.payload)
		case recCommit:
			commit = r.raw
		}
	}
	if commit != nil {
		st.recoverCommitted(runID, commit, segs, rec, condemn)
		return
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil && damaged {
		condemn("run", "log damaged after the manifest was written: an acknowledged commit may be lost")
		return
	}
	// Uncommitted: the intact segment records seed the resume set.
	st.mu.Lock()
	st.runs[runID] = &runState{partial: &partialRun{meta: recs[0].meta, segs: segs, size: size}}
	st.mu.Unlock()
	rec.Resumable = append(rec.Resumable, runID)
}

// preLogLayout condemns a run written by an older store: both the
// per-segment-file layout and the journal-plus-segment-log layout kept
// the run's lifecycle in a journal file.
const preLogLayout = "pre-one-log store layout (journal file)"

// recoverLog scans a run's log, copies a damaged tail to the run's
// quarantine directory and cuts the log back to its intact prefix. It
// returns the intact records, the prefix length and whether a tail was
// cut, or why the log cannot be repaired.
func (st *Store) recoverLog(runID string, rec *Recovery) (recs []logRecord, size int64, damaged bool, fail string) {
	path := st.logPath(runID)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, 0, false, "run log unreadable: " + err.Error()
	}
	recs, intact, damage := scanLog(data)
	if damage != "" {
		rec.Quarantined = append(rec.Quarantined, Quarantine{RunID: runID, Artifact: "log", Reason: damage})
		tail := filepath.Join(st.runDir(runID), "quarantine", fmt.Sprintf("log.%d", intact))
		if err := atomicWrite(tail, data[intact:]); err != nil {
			return nil, 0, true, "quarantining the damaged log tail failed: " + err.Error()
		}
		if err := atomicWrite(path, data[:intact]); err != nil {
			return nil, 0, true, "cutting the damaged log tail failed: " + err.Error()
		}
	}
	return recs, int64(intact), damage != "", ""
}

// recoverCommitted verifies a committed run end to end: manifest bytes
// against the commit record, manifest JSON, then every segment against
// the intact log records.
func (st *Store) recoverCommitted(runID string, commit []byte, segs map[string]int, rec *Recovery, condemn func(artifact, reason string)) {
	data, err := os.ReadFile(filepath.Join(st.runDir(runID), "manifest.json"))
	if err != nil {
		condemn("manifest", "committed but manifest unreadable: "+err.Error())
		return
	}
	if sum := sha256.Sum256(data); !bytes.Equal(sum[:], commit) {
		condemn("manifest", "manifest hash does not match the log's commit record")
		return
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		condemn("manifest", "manifest does not parse: "+err.Error())
		return
	}
	for _, ref := range m.Segments {
		if _, ok := segs[ref.Hash]; !ok {
			condemn(ref.Hash, "segment missing from the log")
			return
		}
	}
	st.mu.Lock()
	st.runs[runID] = &runState{manifest: &m}
	st.mu.Unlock()
	rec.Intact = append(rec.Intact, runID)
}

// syncDir fsyncs a directory so the entries created in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// atomicWrite writes data durably: temp file in the target directory,
// write + fsync, rename over the target, fsync the directory.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	_ = syncDir(dir)
	return nil
}
