package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vidi/internal/core"
	"vidi/internal/trace"
)

// segData builds n frames of deterministic, store-valid bytes (the store
// verifies lengths and hashes, not trace decodability).
func segData(n int, salt byte) []byte {
	out := make([]byte, n*trace.StoragePacketSize)
	for i := range out {
		out[i] = byte(i) ^ salt
	}
	return out
}

func fastOpts() StoreOptions {
	return StoreOptions{
		MaxRetries:       1,
		BackoffBase:      100 * time.Microsecond,
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Millisecond,
	}
}

// commitRun writes a two-segment run and commits it, returning the store.
func commitRun(t *testing.T, root, runID string) *Store {
	t.Helper()
	st, _, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ctx := context.Background()
	w, err := st.Begin(ctx, runID, RunMeta{Tenant: "t0", App: "dma-irq", Scale: 1, Seed: 7})
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, _, err := w.PutSegment(ctx, segData(4, 0x11), 0); err != nil {
		t.Fatalf("put 1: %v", err)
	}
	if _, _, err := w.PutSegment(ctx, segData(4, 0x22), 4); err != nil {
		t.Fatalf("put 2: %v", err)
	}
	if _, err := w.Commit(ctx, TraceStats{Transactions: 9, BodySHA256: "x", Replayable: true}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return st
}

// logFile returns the path of a run's segment log.
func logFile(root, runID string) string { return filepath.Join(root, runID, "segments") }

// findRecord locates the log record holding data and returns the whole log
// with the record's start and end offsets.
func findRecord(t *testing.T, root, runID string, data []byte) ([]byte, int, int) {
	t.Helper()
	log, err := os.ReadFile(logFile(root, runID))
	if err != nil {
		t.Fatalf("segment log unreadable: %v", err)
	}
	want := sha256.Sum256(data)
	recs, _, damage := scanLog(log)
	if damage != "" {
		t.Fatalf("segment log damaged: %s", damage)
	}
	for off, i := 0, 0; i < len(recs); i++ {
		end := off + logHeaderSize + len(recs[i].stored)
		if recs[i].sum == want {
			return log, off, end
		}
		off = end
	}
	t.Fatal("segment missing from the log")
	return nil, 0, 0
}

// writeLog replaces a run's segment log.
func writeLog(t *testing.T, root, runID string, log []byte) {
	t.Helper()
	if err := os.WriteFile(logFile(root, runID), log, 0o644); err != nil {
		t.Fatal(err)
	}
}

// quarantinedAs reports whether rec quarantined runID's artifact with a
// reason containing reason.
func quarantinedAs(rec *Recovery, runID, artifact, reason string) bool {
	for _, q := range rec.Quarantined {
		if q.RunID == runID && q.Artifact == artifact && strings.Contains(q.Reason, reason) {
			return true
		}
	}
	return false
}

func TestStoreRoundTrip(t *testing.T) {
	root := t.TempDir()
	commitRun(t, root, "r1")

	st, rec, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(rec.Intact) != 1 || rec.Intact[0] != "r1" || len(rec.Quarantined) != 0 {
		t.Fatalf("recovery: %s", rec)
	}
	frames, m, err := st.ReadFrames(context.Background(), "r1")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(frames) != 8 || m.Frames != 8 || m.Transactions != 9 {
		t.Fatalf("got %d frames, manifest %+v", len(frames), m)
	}
	want := append(segData(4, 0x11), segData(4, 0x22)...)
	if string(framesToBytes(frames)) != string(want) {
		t.Fatal("read bytes differ from written bytes")
	}
}

// TestRecoveryTornFinalFrame: a crash mid-append leaves a torn final log
// record — its last frame cut, or only half of a further record written.
// Recovery must quarantine exactly that tail, cut the log back to the
// intact prefix and keep the run resumable: a re-upload dedups every
// intact segment, and the repaired run commits and serves after a restart.
func TestRecoveryTornFinalFrame(t *testing.T) {
	segs := [][]byte{segData(4, 1), segData(4, 2), incompressible(4), segData(8, 3)}
	next := appendRecord(nil, sha256.Sum256(segs[3]), encodeSegment(segs[3]))
	for _, c := range []struct {
		name   string
		intact int // how many of the three appended segments survive
		tear   func(log []byte) []byte
	}{
		// The raw container puts the cut inside the last record's final frame.
		{"final frame cut", 2, func(log []byte) []byte { return log[:len(log)-trace.StoragePacketSize/2] }},
		{"half a record appended", 3, func(log []byte) []byte { return append(log, next[:len(next)/2]...) }},
	} {
		root := t.TempDir()
		st, _, err := OpenStore(root, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		meta := RunMeta{Tenant: "t0", App: "a"}
		w, err := st.Begin(ctx, "r1", meta)
		if err != nil {
			t.Fatal(err)
		}
		for i, seg := range segs[:3] {
			if _, _, err := w.PutSegment(ctx, seg, uint32(4*i)); err != nil {
				t.Fatal(err)
			}
		}
		w.Abort()
		log, _, prefix := findRecord(t, root, "r1", segs[c.intact-1])
		torn := c.tear(log)
		writeLog(t, root, "r1", torn)

		st2, rec, err := OpenStore(root, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Resumable) != 1 || len(rec.Quarantined) != 1 || !quarantinedAs(rec, "r1", "segments", "torn write") {
			t.Fatalf("%s: expected exactly the torn tail quarantined on a resumable run: %s", c.name, rec)
		}
		if got, err := os.ReadFile(logFile(root, "r1")); err != nil || string(got) != string(log[:prefix]) {
			t.Fatalf("%s: log not cut back to its intact prefix: %v", c.name, err)
		}
		tail, err := os.ReadFile(filepath.Join(root, "r1", "quarantine", fmt.Sprintf("segments.%d", prefix)))
		if err != nil || string(tail) != string(torn[prefix:]) {
			t.Fatalf("%s: torn tail not copied aside intact: %v", c.name, err)
		}
		w2, err := st2.Begin(ctx, "r1", meta)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for i, seg := range segs {
			_, dedup, err := w2.PutSegment(ctx, seg, uint32(4*i))
			if err != nil || dedup != (i < c.intact) {
				t.Fatalf("%s: segment %d: dedup=%v err=%v", c.name, i, dedup, err)
			}
			want = append(want, seg...)
		}
		if _, err := w2.Commit(ctx, TraceStats{Replayable: true}); err != nil {
			t.Fatalf("%s: commit after resume: %v", c.name, err)
		}
		st3, rec, err := OpenStore(root, fastOpts())
		if err != nil || len(rec.Intact) != 1 || len(rec.Quarantined) != 0 {
			t.Fatalf("%s: repaired run not intact after restart: %v %s", c.name, err, rec)
		}
		frames, _, err := st3.ReadFrames(ctx, "r1")
		if err != nil || string(framesToBytes(frames)) != string(want) {
			t.Fatalf("%s: repaired run reads back wrong: %v", c.name, err)
		}
	}
}

// TestRecoveryDuplicatedSegment: identical content journaled twice (the
// retry/dedup path) must recover to a single verified segment, not an
// error.
func TestRecoveryDuplicatedSegment(t *testing.T) {
	root := t.TempDir()
	st, _, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, err := st.Begin(ctx, "r1", RunMeta{Tenant: "t0", App: "a"})
	if err != nil {
		t.Fatal(err)
	}
	data := segData(4, 3)
	if _, _, err := w.PutSegment(ctx, data, 0); err != nil {
		t.Fatal(err)
	}
	if _, dedup, err := w.PutSegment(ctx, data, 4); err != nil || !dedup {
		t.Fatalf("second identical put should dedup: %v", err)
	}
	w.Abort()

	_, rec, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Resumable) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("duplicated segment mishandled: %s", rec)
	}
}

// TestRecoveryManifestHashMismatch: a committed manifest whose bytes do
// not match the journaled commit hash is a damaged run — quarantined
// whole, never served.
func TestRecoveryManifestHashMismatch(t *testing.T) {
	root := t.TempDir()
	commitRun(t, root, "r1")
	p := filepath.Join(root, "r1", "manifest.json")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st, rec, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Intact) != 0 {
		t.Fatalf("damaged manifest still intact: %s", rec)
	}
	found := false
	for _, q := range rec.Quarantined {
		if q.RunID == "r1" && q.Artifact == "manifest" {
			found = true
		}
	}
	if !found {
		t.Fatalf("manifest damage not quarantined: %s", rec)
	}
	if _, ok := st.Manifest("r1"); ok {
		t.Fatal("quarantined run still serveable")
	}
	if _, err := os.Stat(filepath.Join(root, ".quarantine", "r1")); err != nil {
		t.Fatalf("run not moved to .quarantine: %v", err)
	}
}

// TestRecoverySegmentHashMismatch: a committed record whose content no
// longer matches its hash must fail re-verification and quarantine the
// run — whether bit rot broke the CRC too or the record checksums but
// carries the wrong hash.
func TestRecoverySegmentHashMismatch(t *testing.T) {
	for name, damage := range map[string]struct {
		reason string
		mutate func(rec []byte) []byte
	}{
		"bit rot": {"CRC mismatch", func(rec []byte) []byte {
			rec[logHeaderSize+7] ^= 0x80
			return rec
		}},
		"valid CRC, wrong hash": {"segment content hash mismatch", func(rec []byte) []byte {
			return appendRecord(nil, sha256.Sum256(segData(4, 0x33)), rec[logHeaderSize:])
		}},
	} {
		root := t.TempDir()
		commitRun(t, root, "r1")
		log, start, end := findRecord(t, root, "r1", segData(4, 0x22))
		rec := damage.mutate(append([]byte{}, log[start:end]...))
		writeLog(t, root, "r1", append(append(log[:start:start], rec...), log[end:]...))

		_, recov, err := OpenStore(root, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(recov.Intact) != 0 {
			t.Fatalf("%s: damaged segment still intact: %s", name, recov)
		}
		if !quarantinedAs(recov, "r1", "segments", damage.reason) ||
			!quarantinedAs(recov, "r1", hashBytes(segData(4, 0x22)), "segment missing from the log") {
			t.Fatalf("%s: wrong quarantine report: %s", name, recov)
		}
		if _, err := os.Stat(filepath.Join(root, ".quarantine", "r1")); err != nil {
			t.Fatalf("%s: run not moved to .quarantine: %v", name, err)
		}
	}
}

// TestRecoveryManifestSegmentMissing: a committed run whose manifest names
// a segment the log does not hold is condemned, even though every record
// the log does hold is intact.
func TestRecoveryManifestSegmentMissing(t *testing.T) {
	root := t.TempDir()
	commitRun(t, root, "r1")
	log, start, end := findRecord(t, root, "r1", segData(4, 0x22))
	writeLog(t, root, "r1", append(log[:start:start], log[end:]...))

	st, rec, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Intact) != 0 || len(rec.Quarantined) != 1 ||
		!quarantinedAs(rec, "r1", hashBytes(segData(4, 0x22)), "segment missing from the log") {
		t.Fatalf("missing segment not condemned: %s", rec)
	}
	if _, ok := st.Manifest("r1"); ok {
		t.Fatal("run with a missing segment still serveable")
	}
}

// TestRecoveryEmptyJournal: a run directory with an empty (or absent)
// journal recorded nothing durably and is quarantined whole.
func TestRecoveryEmptyJournal(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"empty-journal", "no-journal"} {
		if err := os.MkdirAll(filepath.Join(root, name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(root, "empty-journal", "journal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Quarantined) != 2 {
		t.Fatalf("expected both journal-less runs quarantined: %s", rec)
	}
	if len(rec.Intact)+len(rec.Resumable) != 0 {
		t.Fatalf("journal-less runs classified as usable: %s", rec)
	}
}

// TestRecoveryTornJournalTail: a half-written final journal line is
// dropped (reported, tolerated); a damaged line mid-journal condemns the
// run.
func TestRecoveryTornJournalTail(t *testing.T) {
	root := t.TempDir()
	st, _, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, err := st.Begin(ctx, "r1", RunMeta{Tenant: "t0", App: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.PutSegment(ctx, segData(2, 4), 0); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	jp := filepath.Join(root, "r1", "journal")
	jf, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(jf, "0badc0de put deadbeef") // no newline, wrong CRC
	jf.Close()

	_, rec, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Resumable) != 1 {
		t.Fatalf("torn tail should leave the run resumable: %s", rec)
	}
	foundTail := false
	for _, q := range rec.Quarantined {
		if q.Artifact == "journal" && q.Reason == "torn tail line dropped" {
			foundTail = true
		}
	}
	if !foundTail {
		t.Fatalf("torn tail not reported: %s", rec)
	}

	// Now corrupt a *middle* line: the journal can no longer be trusted.
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	data[2] ^= 0x04 // inside the first line's CRC field
	if err := os.WriteFile(jp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec2, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Resumable) != 0 || len(rec2.Quarantined) == 0 {
		t.Fatalf("mid-journal damage must condemn the run: %s", rec2)
	}
}

// TestReadFramesQuarantinesCorruption: corruption discovered at read time
// (after a clean recovery) returns a typed error wrapping trace.ErrCorrupt
// and takes the run out of service.
func TestReadFramesQuarantinesCorruption(t *testing.T) {
	root := t.TempDir()
	st := commitRun(t, root, "r1")
	log, start, _ := findRecord(t, root, "r1", segData(4, 0x11))
	log[start+logHeaderSize+5] ^= 0x01
	writeLog(t, root, "r1", log)
	_, _, err := st.ReadFrames(context.Background(), "r1")
	if err == nil {
		t.Fatal("corrupt read returned no error")
	}
	if !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("read error does not wrap trace.ErrCorrupt: %v", err)
	}
	var ce *CorruptRunError
	if !errors.As(err, &ce) || ce.RunID != "r1" {
		t.Fatalf("not a typed CorruptRunError: %v", err)
	}
	if _, ok := st.Manifest("r1"); ok {
		t.Fatal("corrupt run still serveable after detection")
	}
}

// TestStoreFaultEscalation: sustained write faults exhaust retries, wrap
// core.ErrStoreFault, open the breaker (fast shedding), and heal through
// the half-open probe.
func TestStoreFaultEscalation(t *testing.T) {
	root := t.TempDir()
	st, _, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, err := st.Begin(ctx, "r1", RunMeta{Tenant: "t0", App: "a"})
	if err != nil {
		t.Fatal(err)
	}
	down := true
	st.FaultFn = func(op string) error {
		if down {
			return fmt.Errorf("injected fault during %s", op)
		}
		return nil
	}

	var last error
	for i := 0; i < 3; i++ {
		_, _, last = w.PutSegment(ctx, segData(2, byte(i)), uint32(2*i))
		if last == nil {
			t.Fatal("write succeeded during total outage")
		}
	}
	if !errors.Is(last, core.ErrStoreFault) {
		t.Fatalf("exhausted retries do not wrap core.ErrStoreFault: %v", last)
	}
	var sfe *StoreFaultError
	if !errors.As(last, &sfe) {
		t.Fatalf("not a typed StoreFaultError: %v", last)
	}
	if st.Breaker().State() != 1 {
		t.Fatalf("breaker not open after %d consecutive failures", 3)
	}
	// Open breaker sheds without attempting.
	_, _, err = w.PutSegment(ctx, segData(2, 9), 8)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker did not shed: %v", err)
	}
	// Heal, wait out the cooldown: the probe closes the breaker.
	down = false
	time.Sleep(15 * time.Millisecond)
	if _, _, err := w.PutSegment(ctx, segData(2, 0), 0); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	if st.Breaker().State() != 0 {
		t.Fatal("breaker did not close after successful probe")
	}
}

// TestSegmentWriteRetryLeavesOneRecord: a "segment write" fault after a
// partial append (junk longer than a record lands in the log) is retried;
// the log must end with exactly one record per acknowledged segment and
// recover with nothing to quarantine.
func TestSegmentWriteRetryLeavesOneRecord(t *testing.T) {
	root := t.TempDir()
	st, _, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, err := st.Begin(ctx, "r1", RunMeta{Tenant: "t0", App: "a"})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	st.FaultFn = func(op string) error {
		if op != "segment write" {
			return nil
		}
		if calls++; calls%2 == 1 {
			f, err := os.OpenFile(logFile(root, "r1"), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			if _, err := f.Write(make([]byte, 4096)); err != nil {
				return err
			}
			return fmt.Errorf("injected fault during %s", op)
		}
		return nil
	}
	segs := [][]byte{segData(4, 1), segData(4, 2), segData(4, 1), incompressible(4)}
	for i, seg := range segs {
		if _, _, err := w.PutSegment(ctx, seg, uint32(4*i)); err != nil {
			t.Fatalf("segment %d not acknowledged after a retry: %v", i, err)
		}
	}
	w.Abort()
	log, err := os.ReadFile(logFile(root, "r1"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, damage := scanLog(log)
	if damage != "" || len(recs) != 3 {
		t.Fatalf("want 3 intact records (one per unique segment), got %d, damage %q", len(recs), damage)
	}
	seen := map[[sha256.Size]byte]bool{}
	for _, r := range recs {
		if seen[r.sum] {
			t.Fatal("segment appended twice")
		}
		seen[r.sum] = true
	}
	if _, rec, err := OpenStore(root, fastOpts()); err != nil || len(rec.Resumable) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("retried appends left damage: %v %s", err, rec)
	}
}

// TestBeginConflicts: committed runs, active writers and metadata
// mismatches on resume are all refused.
func TestBeginConflicts(t *testing.T) {
	root := t.TempDir()
	st := commitRun(t, root, "r1")
	ctx := context.Background()
	if _, err := st.Begin(ctx, "r1", RunMeta{Tenant: "t0"}); err == nil {
		t.Fatal("Begin on a committed run succeeded")
	}
	if _, err := st.Begin(ctx, "../evil", RunMeta{Tenant: "t0"}); err == nil {
		t.Fatal("path-traversal run id accepted")
	}
	w, err := st.Begin(ctx, "r2", RunMeta{Tenant: "t0", App: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Begin(ctx, "r2", RunMeta{Tenant: "t0", App: "a"}); err == nil {
		t.Fatal("second concurrent writer accepted")
	}
	w.Abort()
	if _, err := st.Begin(ctx, "r2", RunMeta{Tenant: "other", App: "a"}); err == nil {
		t.Fatal("resume with mismatched metadata accepted")
	}
}

// TestJournalEscapesHostileMetaArgs: tenant/app bytes that collide with
// the journal's framing (spaces, newlines, '%', empty strings) must not
// shift fields or split lines — the run stays resumable with its exact
// metadata across a restart, and the journal is never condemned.
func TestJournalEscapesHostileMetaArgs(t *testing.T) {
	for i, meta := range []RunMeta{
		{Tenant: "a b", App: "x\ny%z", Scale: 2, Seed: 9},
		{Tenant: "", App: "tail \r\n", Scale: 1, Seed: -3},
		{Tenant: "%", App: "%%25", Scale: 0, Seed: 0},
	} {
		root := t.TempDir()
		st, _, err := OpenStore(root, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		runID := fmt.Sprintf("r%d", i)
		w, err := st.Begin(ctx, runID, meta)
		if err != nil {
			t.Fatalf("begin %+q: %v", meta, err)
		}
		if _, _, err := w.PutSegment(ctx, segData(2, byte(i)), 0); err != nil {
			t.Fatal(err)
		}
		w.Abort()

		st2, rec, err := OpenStore(root, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Quarantined) != 0 || len(rec.Resumable) != 1 {
			t.Fatalf("meta %+q damaged the journal: %s", meta, rec)
		}
		// Resume with the identical metadata must succeed (fields intact)...
		w2, err := st2.Begin(ctx, runID, meta)
		if err != nil {
			t.Fatalf("resume with original meta %+q refused: %v", meta, err)
		}
		w2.Abort()
		// ...and a different tenant must still be detected as a mismatch.
		if _, err := st2.Begin(ctx, runID, RunMeta{Tenant: "other", App: meta.App, Scale: meta.Scale, Seed: meta.Seed}); err == nil {
			t.Fatalf("meta %+q: mismatched resume accepted", meta)
		}
	}
}

// TestEscapeArgRoundTrip pins the journal argument encoding.
func TestEscapeArgRoundTrip(t *testing.T) {
	for _, s := range []string{"", " ", "%", "plain", "a b\tc", "nl\nend", "%20", "100% done", string([]byte{0, 1, 0x7f})} {
		esc := escapeArg(s)
		if strings.ContainsAny(esc, " \t\n\r") || esc == "" {
			t.Fatalf("escapeArg(%q) = %q still carries framing bytes", s, esc)
		}
		if got := unescapeArg(esc); got != s {
			t.Fatalf("round trip %q -> %q -> %q", s, esc, got)
		}
	}
}

// TestReadFramesTransientErrorIsRetryable: a read failure that is not
// verified damage (here: the segment log turned into a directory, standing
// in for EMFILE/EIO) must surface as a retryable store fault and leave the
// intact committed run in service; a *missing* log is real corruption and
// quarantines.
func TestReadFramesTransientErrorIsRetryable(t *testing.T) {
	root := t.TempDir()
	st := commitRun(t, root, "r1")
	ctx := context.Background()
	p := logFile(root, "r1")
	log, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(p); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(p, 0o755); err != nil {
		t.Fatal(err)
	}
	_, _, err = st.ReadFrames(ctx, "r1")
	if err == nil {
		t.Fatal("unreadable segment log returned no error")
	}
	var sfe *StoreFaultError
	if !errors.As(err, &sfe) {
		t.Fatalf("transient read error is not a StoreFaultError: %v", err)
	}
	var cre *CorruptRunError
	if errors.As(err, &cre) {
		t.Fatalf("transient read error misreported as corruption: %v", err)
	}
	if _, ok := st.Manifest("r1"); !ok {
		t.Fatal("transient read error took the run out of service")
	}
	if _, err := os.Stat(filepath.Join(root, "r1", "manifest.json")); err != nil {
		t.Fatalf("transient read error moved the run on disk: %v", err)
	}

	// Heal the fault: the same run serves again without intervention.
	if err := os.Remove(p); err != nil {
		t.Fatal(err)
	}
	writeLog(t, root, "r1", log)
	if _, _, err := st.ReadFrames(ctx, "r1"); err != nil {
		t.Fatalf("read after heal: %v", err)
	}

	// A missing log is verified damage: typed corruption + quarantine.
	if err := os.Remove(p); err != nil {
		t.Fatal(err)
	}
	_, _, err = st.ReadFrames(ctx, "r1")
	if !errors.As(err, &cre) || !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("missing segment log not reported as corruption: %v", err)
	}
	if _, ok := st.Manifest("r1"); ok {
		t.Fatal("run with missing segment log still serveable")
	}
}

// ---- storage codec ----

// incompressible fills n frames with hash-chained random-looking bytes
// flate cannot shrink, forcing the codec's raw-container fallback.
func incompressible(n int) []byte {
	out := make([]byte, 0, n*trace.StoragePacketSize+sha256.Size)
	var block [sha256.Size]byte
	for len(out) < n*trace.StoragePacketSize {
		block = sha256.Sum256(block[:])
		out = append(out, block[:]...)
	}
	return out[:n*trace.StoragePacketSize]
}

func TestSegmentCodecRoundTrip(t *testing.T) {
	cases := map[string][]byte{
		"compressible":   segData(64, 0x5a),
		"incompressible": incompressible(64),
		"empty":          {},
	}
	for name, raw := range cases {
		stored := encodeSegment(raw)
		if string(stored[:4]) != "VZS1" && string(stored[:4]) != "VZS0" {
			t.Fatalf("%s: stored segment has no codec magic: %q", name, stored[:4])
		}
		got, err := decodeSegment(stored)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if string(got) != string(raw) {
			t.Fatalf("%s: codec round trip mutated the segment", name)
		}
	}
	if stored := encodeSegment(incompressible(64)); string(stored[:4]) != "VZS0" {
		t.Fatalf("incompressible data should use the raw container, got %q", stored[:4])
	}
	if stored := encodeSegment(segData(64, 0x5a)); len(stored) >= 64*trace.StoragePacketSize {
		t.Fatalf("compressible data did not shrink: %d stored bytes", len(stored))
	}
	// Every record is written through encodeSegment: no magic is damage.
	if _, err := decodeSegment(segData(2, 0x01)); err == nil {
		t.Fatal("container without codec magic decoded")
	}
}

// TestCommitRecordsCompression: the manifest of a committed run carries
// the on-disk byte total and the raw/stored ratio, and the API-visible
// frame bytes still hash and read back as raw.
func TestCommitRecordsCompression(t *testing.T) {
	root := t.TempDir()
	st, _, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ctx := context.Background()
	w, err := st.Begin(ctx, "rz", RunMeta{Tenant: "t0", App: "dma-irq", Scale: 1, Seed: 7})
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	data := segData(64, 0x33)
	if _, _, err := w.PutSegment(ctx, data, 0); err != nil {
		t.Fatalf("put: %v", err)
	}
	// Dedup re-upload must not double-count stored bytes.
	if _, dedup, err := w.PutSegment(ctx, data, 64); err != nil || !dedup {
		t.Fatalf("dedup put: dedup=%v err=%v", dedup, err)
	}
	m, err := w.Commit(ctx, TraceStats{Transactions: 1, BodySHA256: "x", Replayable: true})
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if m.StoredBytes == 0 || m.StoredBytes >= m.Bytes {
		t.Fatalf("expected compressed StoredBytes in (0, %d), got %d", m.Bytes, m.StoredBytes)
	}
	if m.CompressionRatio <= 1 {
		t.Fatalf("CompressionRatio = %v, want > 1", m.CompressionRatio)
	}
	if want := float64(m.Bytes) / float64(m.StoredBytes); m.CompressionRatio != want {
		t.Fatalf("CompressionRatio = %v, want %v", m.CompressionRatio, want)
	}
	frames, _, err := st.ReadFrames(ctx, "rz")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(framesToBytes(frames)) != string(append(append([]byte{}, data...), data...)) {
		t.Fatal("read bytes differ from raw written bytes")
	}
}

// TestPreLogLayoutQuarantined: run directories written by the
// per-segment-file store (a segs/ tree, or put/done journal records) are
// not read; recovery moves them aside whole with their own reason.
func TestPreLogLayoutQuarantined(t *testing.T) {
	root := t.TempDir()
	open := journalLine("open", "t0", "a", "1", "7")
	put := journalLine("put", hashBytes(segData(4, 1)), "1024", "4", "0")
	for runID, files := range map[string]map[string]string{
		"with-segs":     {"journal": open, "segs/ab/x.seg": "raw"},
		"with-put-done": {"journal": open + put + journalLine("done", hashBytes(segData(4, 1)))},
	} {
		for name, body := range files {
			p := filepath.Join(root, runID, name)
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, rec, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Intact)+len(rec.Resumable) != 0 || len(rec.Quarantined) != 2 ||
		!quarantinedAs(rec, "with-segs", "run", preLogLayout) ||
		!quarantinedAs(rec, "with-put-done", "run", preLogLayout) {
		t.Fatalf("pre-log runs not quarantined whole: %s", rec)
	}
	for _, runID := range []string{"with-segs", "with-put-done"} {
		if _, err := os.Stat(filepath.Join(root, ".quarantine", runID, "journal")); err != nil {
			t.Fatalf("%s not moved to .quarantine whole: %v", runID, err)
		}
	}
}

// TestTruncatedCompressedSegmentQuarantined: a cut flate stream is verified
// damage — recovery must quarantine it, not serve it.
func TestTruncatedCompressedSegmentQuarantined(t *testing.T) {
	root := t.TempDir()
	st, _, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ctx := context.Background()
	w, err := st.Begin(ctx, "r1", RunMeta{Tenant: "t0", App: "dma-irq", Scale: 1, Seed: 7})
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	data := segData(64, 0x11) // repeats every 256 bytes: compresses
	if _, _, err := w.PutSegment(ctx, data, 0); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := w.Commit(ctx, TraceStats{Transactions: 1, BodySHA256: "x", Replayable: true}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	// Re-frame the record around a cut flate stream with a valid CRC, so
	// only the codec can catch it.
	log, start, end := findRecord(t, root, "r1", data)
	stored := log[start+logHeaderSize : end]
	if string(stored[:4]) != "VZS1" {
		t.Fatalf("expected compressed container, got %q", stored[:4])
	}
	writeLog(t, root, "r1", appendRecord(log[:start:start], sha256.Sum256(data), stored[:len(stored)-3]))
	_, rec, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(rec.Intact) != 0 || !quarantinedAs(rec, "r1", "segments", "segment codec") {
		t.Fatalf("truncated compressed segment not quarantined: %s", rec)
	}
}

// FuzzSegmentLog: the record parser must never panic on arbitrary bytes,
// must report damage whenever it stops short of the end, and the intact
// prefix it returns must re-encode byte for byte.
func FuzzSegmentLog(f *testing.F) {
	var log []byte
	for _, raw := range [][]byte{segData(4, 1), incompressible(2), segData(1, 9)} {
		log = appendRecord(log, sha256.Sum256(raw), encodeSegment(raw))
	}
	f.Add([]byte{})
	f.Add(log)
	f.Add(log[:len(log)-7])
	f.Add(log[:logHeaderSize-1])
	bad := append([]byte{}, log...)
	bad[9] ^= 0xff
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, intact, damage := scanLog(data)
		if intact < 0 || intact > len(data) {
			t.Fatalf("intact prefix %d outside [0, %d]", intact, len(data))
		}
		if (damage == "") != (intact == len(data)) {
			t.Fatalf("damage %q with intact prefix %d of %d bytes", damage, intact, len(data))
		}
		var again []byte
		for _, r := range recs {
			if sha256.Sum256(r.raw) != r.sum {
				t.Fatal("accepted a record whose content does not match its hash")
			}
			again = appendRecord(again, r.sum, r.stored)
		}
		if string(again) != string(data[:intact]) {
			t.Fatal("intact prefix does not re-encode byte for byte")
		}
	})
}
