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
	"strconv"
	"strings"
	"sync"
	"time"

	"vidi/internal/trace"
)

// Trace-store layout, one directory per run under the store root
// (artifacts/<run_id>/ in a deployment):
//
//	<root>/<run_id>/journal            fsync'd append-only operation log
//	<root>/<run_id>/segments           fsync'd append-only segment log
//	<root>/<run_id>/manifest.json      integrity manifest, written at commit
//	<root>/<run_id>/quarantine/        damaged log tails copied aside
//	<root>/.quarantine/<run_id>...     whole runs recovery refused to trust
//
// The journal records the run's lifecycle (open, gap, commit); the segment
// log holds one CRC'd, content-hashed record per unique segment, fsync'd
// before the segment is acknowledged. So recovery can classify any crash
// point: a torn final record fails its CRC and is cut off, intact records
// re-verify by hash, and an uncommitted run resumes from them instead of
// serving a partial trace. Journal lines carry their own CRC so a torn
// tail line is detected and dropped rather than misparsed.

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
	// content dedupes to one segment log record.
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
	// run's segment log records, headers excluded (the flate storage codec
	// usually makes this smaller than Bytes); CompressionRatio is
	// Bytes/StoredBytes.
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
	Artifact string // "run", "manifest", "journal", "segments", or a segment hash
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
	size int64          // length of the intact segment log
}

// OpenStore opens (or creates) a store rooted at root and runs the
// recovery scan: journals are replayed, torn writes quarantined, committed
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
func (st *Store) logPath(runID string) string { return filepath.Join(st.runDir(runID), "segments") }

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

// validLabel restricts tenant/app names to a printable, whitespace-free
// charset so they journal and log without framing ambiguity.
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

// Segments are stored behind a 4-byte codec header: "VZS1" + flate stream
// or "VZS0" + raw bytes (incompressible payloads). SegmentRef.Hash stays
// the sha256 of the RAW frame bytes, so dedup, manifests and the HTTP API
// never see compression.

var (
	segMagicFlate = []byte("VZS1")
	segMagicRaw   = []byte("VZS0")
)

// flateWriters recycles BestSpeed compressors: a new one allocates over a
// megabyte, and Reset is equivalent to NewWriter, so bytes do not change.
var flateWriters = sync.Pool{New: func() any {
	zw, _ := flate.NewWriter(nil, flate.BestSpeed)
	return zw
}}

// encodeSegment compresses raw frame bytes for disk, falling back to the
// raw container when flate does not help.
func encodeSegment(raw []byte) []byte {
	var buf bytes.Buffer
	buf.Write(segMagicFlate)
	zw := flateWriters.Get().(*flate.Writer)
	zw.Reset(&buf)
	_, werr := zw.Write(raw)
	cerr := zw.Close()
	flateWriters.Put(zw)
	if werr == nil && cerr == nil && buf.Len() < len(raw)+len(segMagicRaw) {
		return buf.Bytes()
	}
	out := make([]byte, 0, len(raw)+len(segMagicRaw))
	out = append(out, segMagicRaw...)
	return append(out, raw...)
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

// ---- segment log ----

// A segment log record is "VSL1" | stored length (u32 BE) |
// crc32(hash‖stored) (u32 BE) | sha256(raw) | stored, where stored is the
// encodeSegment container. The CRC catches a torn or rotted record; the
// hash is re-checked against the decoded bytes.
var logMagic = []byte("VSL1")

const logHeaderSize = 4 + 4 + 4 + sha256.Size

// appendRecord appends one segment log record to dst.
func appendRecord(dst []byte, sum [sha256.Size]byte, stored []byte) []byte {
	dst = append(dst, logMagic...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(stored)))
	dst = binary.BigEndian.AppendUint32(dst, recordCRC(sum, stored))
	dst = append(dst, sum[:]...)
	return append(dst, stored...)
}

func recordCRC(sum [sha256.Size]byte, stored []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(sum[:]), crc32.IEEETable, stored)
}

// logRecord is one verified segment log record.
type logRecord struct {
	sum    [sha256.Size]byte
	stored []byte // the codec container, aliasing the scanned log
	raw    []byte // the decoded frame bytes
}

// scanLog verifies a segment log up to its first damaged record. It
// returns the intact records, the intact prefix length, and why the next
// record is damaged ("" when the whole log is intact).
func scanLog(data []byte) (recs []logRecord, off int, damage string) {
	for off < len(data) {
		rec, bad := parseRecord(data[off:])
		if bad != "" {
			return recs, off, fmt.Sprintf("record at offset %d: %s", off, bad)
		}
		recs = append(recs, rec)
		off += logHeaderSize + len(rec.stored)
	}
	return recs, off, ""
}

// parseRecord verifies the record at the start of b, or says why it is
// damaged.
func parseRecord(b []byte) (rec logRecord, damage string) {
	if len(b) < logHeaderSize {
		return rec, "header cut short (torn write)"
	}
	if !bytes.Equal(b[:4], logMagic) {
		return rec, "bad record magic"
	}
	n := uint64(binary.BigEndian.Uint32(b[4:8]))
	if n > uint64(len(b)-logHeaderSize) {
		return rec, "record runs past the end of the log (torn write)"
	}
	copy(rec.sum[:], b[12:logHeaderSize])
	rec.stored = b[logHeaderSize : logHeaderSize+int(n)]
	if recordCRC(rec.sum, rec.stored) != binary.BigEndian.Uint32(b[8:12]) {
		return rec, "CRC mismatch"
	}
	raw, err := decodeSegment(rec.stored)
	if err != nil {
		return rec, err.Error()
	}
	if sha256.Sum256(raw) != rec.sum {
		return rec, "segment content hash mismatch"
	}
	rec.raw = raw
	return rec, ""
}

// ---- journal ----

// journal line: "<crc32:08x> <op> <args...>", CRC over everything after
// the separating space. A torn tail (partial line, missing newline, or
// CRC mismatch on the final line) is dropped by recovery; a damaged line
// anywhere else condemns the journal. Args are percent-escaped so the
// space-separated, line-framed format survives any argument bytes.
func journalLine(op string, args ...string) string {
	rest := op
	for _, a := range args {
		rest += " " + escapeArg(a)
	}
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(rest)), rest)
}

// escapeArg percent-encodes '%', whitespace, and control bytes so a
// journal argument can never shift fields or split lines; the bare
// sentinel "%" stands for an empty argument. Safe strings (hashes,
// numbers, plain names) round-trip unchanged.
func escapeArg(s string) string {
	if s == "" {
		return "%"
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '%' || c <= ' ' || c == 0x7f {
			fmt.Fprintf(&b, "%%%02x", c)
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

func unescapeArg(s string) string {
	if s == "%" {
		return ""
	}
	if !strings.Contains(s, "%") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			if v, err := strconv.ParseUint(s[i+1:i+3], 16, 8); err == nil {
				b.WriteByte(byte(v))
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

type journalRec struct {
	op   string
	args []string
}

// parseJournal returns the intact records and whether a torn tail was
// dropped. Damage on the final line of the file is a torn write (tolerated
// and dropped); damage anywhere earlier means the journal itself cannot be
// trusted and returns an error.
func parseJournal(data []byte) ([]journalRec, bool, error) {
	var recs []journalRec
	lines := strings.Split(string(data), "\n")
	// Drop the empty element a well-formed trailing newline produces; if
	// the last element is non-empty the final append lost its newline —
	// already evidence of a torn write.
	if n := len(lines); lines[n-1] == "" {
		lines = lines[:n-1]
	}
	for i, line := range lines {
		bad := ""
		switch {
		case len(line) < 10 || line[8] != ' ' || strings.TrimSpace(line[9:]) == "":
			bad = "malformed line"
		default:
			crcv, err := strconv.ParseUint(line[:8], 16, 32)
			if err != nil || uint32(crcv) != crc32.ChecksumIEEE([]byte(line[9:])) {
				bad = "CRC mismatch"
			}
		}
		if bad != "" {
			if i == len(lines)-1 {
				return recs, true, nil // torn tail: drop and report
			}
			return nil, false, fmt.Errorf("journal line %d: %s", i+1, bad)
		}
		fields := strings.Fields(line[9:])
		args := make([]string, len(fields)-1)
		for k, f := range fields[1:] {
			args[k] = unescapeArg(f)
		}
		recs = append(recs, journalRec{op: fields[0], args: args})
	}
	// A final line that lost its newline but still checksums is the
	// moment before the fsync landed; it is intact, keep it.
	return recs, false, nil
}

// appendJournal durably appends one record through the hardened write
// path.
func (w *RunWriter) appendJournal(ctx context.Context, op string, args ...string) error {
	line := journalLine(op, args...)
	return w.st.retr.do(ctx, "journal append", func() error {
		if err := w.st.fault("journal append"); err != nil {
			return err
		}
		if _, err := w.journal.WriteString(line); err != nil {
			return err
		}
		return w.journal.Sync()
	})
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
	journal *os.File
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
	// segment is acknowledged: the run directory holds the journal and
	// log, the root holds the run directory.
	dir := st.runDir(runID)
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		w.journal, err = os.OpenFile(filepath.Join(dir, "journal"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	}
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
		err = w.appendJournal(ctx, "open", meta.Tenant, meta.App,
			strconv.Itoa(meta.Scale), strconv.FormatInt(meta.Seed, 10))
	}
	if err != nil {
		w.journal.Close() // (*os.File).Close tolerates nil
		w.log.Close()
		st.mu.Lock()
		rs.writer = nil
		st.mu.Unlock()
		return nil, err
	}
	return w, nil
}

// PutSegment durably stores one segment of storage frames: one record
// appended to the segment log and fsync'd, skipped when the content hash
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
		var rec []byte
		endWrite := stageTimer(ctx, "write")
		err := w.st.retr.do(ctx, "segment write", func() error {
			if rec == nil { // encoded on the first attempt: an open breaker sheds for free
				stored := encodeSegment(data)
				rec = appendRecord(make([]byte, 0, logHeaderSize+len(stored)), sum, stored)
			}
			err := w.st.fault("segment write")
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
		endWrite()
		if err != nil {
			return SegmentRef{}, false, err
		}
		w.logSize += int64(len(rec))
		w.durable[ref.Hash] = len(rec) - logHeaderSize
	}
	w.refs = append(w.refs, ref)
	w.frames += uint64(ref.Frames)
	w.bytes += uint64(ref.Bytes)
	return ref, dedup, nil
}

// MarkGap journals frames the client permanently failed to deliver. The
// run commits as degraded and unreplayable — preserved, never served as
// an intact trace.
func (w *RunWriter) MarkGap(ctx context.Context, frames uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("serve: run %s writer is closed", w.runID)
	}
	if err := w.appendJournal(ctx, "gap", strconv.FormatUint(frames, 10)); err != nil {
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
	w.mu.Lock()
	refs := append([]SegmentRef(nil), w.refs...)
	w.mu.Unlock()
	defer stageTimer(ctx, "readback")()
	return w.st.readSegments(w.runID, refs)
}

// readSegments verifies a run's segment log and returns the raw bytes of
// refs in order. Damage past the records refs need is not the run's: an
// append in flight, or a refused one the next append overwrites.
func (st *Store) readSegments(runID string, refs []SegmentRef) ([]byte, error) {
	data, err := os.ReadFile(st.logPath(runID))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, &CorruptRunError{RunID: runID, Artifact: "segments",
				Reason: "segment log missing: " + err.Error()}
		}
		// A read failure that is not verified damage (fd exhaustion, a
		// momentary I/O error) must stay retryable: it is the caller's
		// 503, never grounds to quarantine an intact committed run.
		return nil, &StoreFaultError{Op: "segment read", Err: err}
	}
	recs, _, damage := scanLog(data)
	raws := make(map[string][]byte, len(recs))
	for _, r := range recs {
		raws[hex.EncodeToString(r.sum[:])] = r.raw
	}
	var out []byte
	for _, ref := range refs {
		raw, ok := raws[ref.Hash]
		if !ok && damage != "" {
			return nil, &CorruptRunError{RunID: runID, Artifact: "segments", Reason: damage}
		}
		if !ok {
			return nil, &CorruptRunError{RunID: runID, Artifact: ref.Hash, Reason: "segment missing from the log"}
		}
		out = append(out, raw...)
	}
	return out, nil
}

// Commit seals the run: manifest written + fsync'd, its hash journaled,
// the journal closed. After Commit the run is immutable and servable.
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
	if err := w.appendJournal(ctx, "commit", hashBytes(data)); err != nil {
		return nil, err
	}
	w.closed = true
	w.journal.Close()
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
	w.journal.Close()
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
// every segment log record's CRC and content hash plus the manifest's end-to-end body hash
// after deframing happens in the caller. A failed check quarantines the
// run in memory so it is never served again, and returns a typed error
// wrapping trace.ErrCorrupt.
func (st *Store) ReadFrames(ctx context.Context, runID string) ([][trace.StoragePacketSize]byte, *Manifest, error) {
	m, ok := st.Manifest(runID)
	if !ok {
		return nil, nil, fmt.Errorf("serve: unknown run %s", runID)
	}
	body, err := st.readSegments(runID, m.Segments)
	if err != nil {
		var ce *CorruptRunError
		if errors.As(err, &ce) {
			st.quarantineRun(runID, ce.Reason)
		}
		return nil, nil, err
	}
	frames, err := framesFromBytes(body)
	if err != nil {
		st.quarantineRun(runID, err.Error())
		return nil, nil, &CorruptRunError{RunID: runID, Artifact: "stream", Reason: err.Error()}
	}
	return frames, m, nil
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

// recover scans every run directory, replays its journal and classifies
// the run. It returns an error only for store-level failures (unreadable
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

	if _, err := os.Stat(filepath.Join(dir, "segs")); err == nil {
		condemn("run", preLogLayout)
		return
	}
	jdata, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil || len(jdata) == 0 {
		// A run directory without a journal recorded nothing durably —
		// nothing in it can be trusted.
		condemn("journal", "empty or missing journal")
		return
	}
	recs, torn, perr := parseJournal(jdata)
	if perr != nil {
		condemn("journal", perr.Error())
		return
	}
	if torn {
		rec.Quarantined = append(rec.Quarantined,
			Quarantine{RunID: runID, Artifact: "journal", Reason: "torn tail line dropped"})
	}
	if len(recs) == 0 {
		condemn("journal", "no intact journal records")
		return
	}

	var meta RunMeta
	committed := ""
	for _, r := range recs {
		switch r.op {
		case "open":
			if len(r.args) >= 4 {
				scale, _ := strconv.Atoi(r.args[2])
				seed, _ := strconv.ParseInt(r.args[3], 10, 64)
				meta = RunMeta{Tenant: r.args[0], App: r.args[1], Scale: scale, Seed: seed}
			}
		case "put", "done":
			condemn("run", preLogLayout)
			return
		case "commit":
			if len(r.args) >= 1 {
				committed = r.args[0]
			}
		}
	}

	// Repair the journal file to exactly its intact records before anything
	// appends to it again: a dropped torn tail (or a final line that lost
	// its newline) would otherwise concatenate with the next append and
	// condemn the whole journal on the following restart. An undamaged
	// journal round-trips byte for byte and is left untouched.
	rebuilt := make([]byte, 0, len(jdata))
	for _, r := range recs {
		rebuilt = append(rebuilt, journalLine(r.op, r.args...)...)
	}
	if !bytes.Equal(rebuilt, jdata) {
		if err := atomicWrite(filepath.Join(dir, "journal"), rebuilt); err != nil {
			condemn("journal", "journal repair failed: "+err.Error())
			return
		}
	}

	segs, size, reason := st.recoverLog(runID, rec)
	if reason != "" {
		condemn("segments", reason)
		return
	}
	if committed != "" {
		st.recoverCommitted(runID, committed, segs, rec, condemn)
		return
	}
	// Uncommitted: the intact records seed the resume set.
	st.mu.Lock()
	st.runs[runID] = &runState{partial: &partialRun{meta: meta, segs: segs, size: size}}
	st.mu.Unlock()
	rec.Resumable = append(rec.Resumable, runID)
}

// preLogLayout condemns a run written by the per-segment-file store.
const preLogLayout = "pre-log store layout (segs/ files, put/done journal records)"

// recoverLog scans a run's segment log, copies a damaged tail to the run's
// quarantine directory and cuts the log back to its intact prefix. It
// returns the intact records' stored lengths by hash and the prefix
// length, or why the log cannot be repaired.
func (st *Store) recoverLog(runID string, rec *Recovery) (map[string]int, int64, string) {
	path := st.logPath(runID)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, 0, "segment log unreadable: " + err.Error()
	}
	recs, intact, damage := scanLog(data)
	if damage != "" {
		rec.Quarantined = append(rec.Quarantined, Quarantine{RunID: runID, Artifact: "segments", Reason: damage})
		tail := filepath.Join(st.runDir(runID), "quarantine", fmt.Sprintf("segments.%d", intact))
		if err := atomicWrite(tail, data[intact:]); err != nil {
			return nil, 0, "quarantining the damaged log tail failed: " + err.Error()
		}
		if err := atomicWrite(path, data[:intact]); err != nil {
			return nil, 0, "cutting the damaged log tail failed: " + err.Error()
		}
	}
	segs := make(map[string]int, len(recs))
	for _, r := range recs {
		segs[hex.EncodeToString(r.sum[:])] = len(r.stored)
	}
	return segs, int64(intact), ""
}

// recoverCommitted verifies a committed run end to end: manifest bytes
// against the journaled hash, manifest JSON, then every segment against
// the intact log records.
func (st *Store) recoverCommitted(runID, wantHash string, segs map[string]int, rec *Recovery, condemn func(artifact, reason string)) {
	data, err := os.ReadFile(filepath.Join(st.runDir(runID), "manifest.json"))
	if err != nil {
		condemn("manifest", "committed but manifest unreadable: "+err.Error())
		return
	}
	if h := hashBytes(data); h != wantHash {
		condemn("manifest", "manifest hash does not match journal commit record")
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
