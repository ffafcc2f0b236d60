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
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vidi/internal/apps"
	"vidi/internal/core"
	"vidi/internal/eval"
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

// logFile returns the path of a run's log.
func logFile(root, runID string) string { return filepath.Join(root, runID, "log") }

// findRecord locates the segment record holding data and returns the whole
// log with the record's start and end offsets.
func findRecord(t *testing.T, root, runID string, data []byte) ([]byte, int, int) {
	t.Helper()
	log, err := os.ReadFile(logFile(root, runID))
	if err != nil {
		t.Fatalf("run log unreadable: %v", err)
	}
	want := sha256.Sum256(data)
	recs, _, damage := scanLog(log)
	if damage != "" {
		t.Fatalf("run log damaged: %s", damage)
	}
	for off, i := 0, 0; i < len(recs); i++ {
		end := off + logHeaderSize + len(recs[i].payload)
		if recs[i].kind == recSegment && recs[i].sum == want {
			return log, off, end
		}
		off = end
	}
	t.Fatal("segment missing from the log")
	return nil, 0, 0
}

// writeLog replaces a run's log.
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
	next := segmentRecord(sha256.Sum256(segs[3]), segs[3])
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
		if len(rec.Resumable) != 1 || len(rec.Quarantined) != 1 || !quarantinedAs(rec, "r1", "log", "torn write") {
			t.Fatalf("%s: expected exactly the torn tail quarantined on a resumable run: %s", c.name, rec)
		}
		if got, err := os.ReadFile(logFile(root, "r1")); err != nil || string(got) != string(log[:prefix]) {
			t.Fatalf("%s: log not cut back to its intact prefix: %v", c.name, err)
		}
		tail, err := os.ReadFile(filepath.Join(root, "r1", "quarantine", fmt.Sprintf("log.%d", prefix)))
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

// TestRecoveryDuplicatedSegment: identical content uploaded twice (the
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
// not match the log's commit record is a damaged run — quarantined
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
// carries the wrong hash. The cut takes the commit record with it, and a
// run with a manifest but no surviving commit record is condemned whole.
func TestRecoverySegmentHashMismatch(t *testing.T) {
	for name, damage := range map[string]struct {
		reason string
		mutate func(rec []byte) []byte
	}{
		"bit rot": {"CRC mismatch", func(rec []byte) []byte {
			rec[logHeaderSize+7] ^= 0x80
			return rec
		}},
		"valid CRC, wrong hash": {"content hash mismatch", func(rec []byte) []byte {
			return appendRecord(nil, recSegment, sha256.Sum256(segData(4, 0x33)), rec[logHeaderSize:])
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
		if !quarantinedAs(recov, "r1", "log", damage.reason) ||
			!quarantinedAs(recov, "r1", "run", "acknowledged commit may be lost") {
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

// TestRecoveryNoOpenRecord: a run whose log does not start with an intact
// open record recorded nothing durably and is quarantined whole — whether
// the log is absent, empty, or starts with another kind of record.
func TestRecoveryNoOpenRecord(t *testing.T) {
	root := t.TempDir()
	seg := segData(2, 1)
	for runID, log := range map[string][]byte{
		"empty-log":     {},
		"segment-first": segmentRecord(sha256.Sum256(seg), seg),
		"gap-first":     lifecycleRecord(recGap, make([]byte, 8)),
	} {
		if err := os.MkdirAll(filepath.Join(root, runID), 0o755); err != nil {
			t.Fatal(err)
		}
		writeLog(t, root, runID, log)
	}
	if err := os.MkdirAll(filepath.Join(root, "no-log"), 0o755); err != nil {
		t.Fatal(err)
	}

	_, rec, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, runID := range []string{"empty-log", "segment-first", "gap-first", "no-log"} {
		if !quarantinedAs(rec, runID, "log", "no leading open record") {
			t.Fatalf("%s not condemned: %s", runID, rec)
		}
	}
	if len(rec.Quarantined) != 4 || len(rec.Intact)+len(rec.Resumable) != 0 {
		t.Fatalf("runs without an open record classified as usable: %s", rec)
	}
}

// TestRecoveryTornLifecycleRecord: a half-written final gap or commit
// record is cut off and reported. A torn gap leaves the run resumable. A
// torn commit after the manifest landed condemns the run whole: recovery
// cannot tell whether the commit was acknowledged. Damage to the open
// record leaves no leading open record and condemns the run.
func TestRecoveryTornLifecycleRecord(t *testing.T) {
	ctx := context.Background()
	meta := RunMeta{Tenant: "t0", App: "a"}
	gap := lifecycleRecord(recGap, make([]byte, 8))
	for _, c := range []struct {
		name      string
		commit    bool
		torn      []byte
		resumable bool
		condemned string
	}{
		{"torn gap", false, gap[:len(gap)-3], true, ""},
		{"torn commit after the manifest", true, nil, false, "acknowledged commit may be lost"},
	} {
		root := t.TempDir()
		st, _, err := OpenStore(root, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		w, err := st.Begin(ctx, "r1", meta)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.PutSegment(ctx, segData(2, 4), 0); err != nil {
			t.Fatal(err)
		}
		log, _, intact := findRecord(t, root, "r1", segData(2, 4))
		torn := append(log, c.torn...)
		if c.commit {
			if _, err := w.Commit(ctx, TraceStats{Replayable: true}); err != nil {
				t.Fatal(err)
			}
			full, err := os.ReadFile(logFile(root, "r1"))
			if err != nil {
				t.Fatal(err)
			}
			torn = full[:len(full)-1]
		} else {
			w.Abort()
		}
		writeLog(t, root, "r1", torn)

		_, rec, err := OpenStore(root, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		if !quarantinedAs(rec, "r1", "log", "torn write") {
			t.Fatalf("%s: torn record not reported: %s", c.name, rec)
		}
		if c.resumable {
			if len(rec.Resumable) != 1 || len(rec.Quarantined) != 1 {
				t.Fatalf("%s: want a resumable run: %s", c.name, rec)
			}
			if got, err := os.ReadFile(logFile(root, "r1")); err != nil || string(got) != string(log[:intact]) {
				t.Fatalf("%s: log not cut back to its intact prefix: %v", c.name, err)
			}
			continue
		}
		if len(rec.Resumable)+len(rec.Intact) != 0 || !quarantinedAs(rec, "r1", "run", c.condemned) {
			t.Fatalf("%s: want the run condemned: %s", c.name, rec)
		}
	}

	// Damage inside the open record: nothing after it can be trusted.
	root := t.TempDir()
	commitRun(t, root, "r1")
	log, err := os.ReadFile(logFile(root, "r1"))
	if err != nil {
		t.Fatal(err)
	}
	log[logHeaderSize+2] ^= 0x04
	writeLog(t, root, "r1", log)
	_, rec, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Intact)+len(rec.Resumable) != 0 || !quarantinedAs(rec, "r1", "log", "no leading open record") {
		t.Fatalf("damaged open record must condemn the run: %s", rec)
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
			return tornAppend(root, "r1", op)
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
	if damage != "" || len(recs) != 4 || recs[0].kind != recOpen {
		t.Fatalf("want the open record and one record per unique segment, got %d, damage %q", len(recs), damage)
	}
	seen := map[[sha256.Size]byte]bool{}
	for _, r := range recs[1:] {
		if r.kind != recSegment || seen[r.sum] {
			t.Fatal("segment appended twice")
		}
		seen[r.sum] = true
	}
	if _, rec, err := OpenStore(root, fastOpts()); err != nil || len(rec.Resumable) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("retried appends left damage: %v %s", err, rec)
	}
}

// tornAppend stands in for a write that failed part way: it appends junk
// longer than any record to the run's log and returns an injected fault.
func tornAppend(root, runID, op string) error {
	f, err := os.OpenFile(logFile(root, runID), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		return err
	}
	return fmt.Errorf("injected fault during %s", op)
}

// TestLifecycleAppendRetryLeavesOneRecord: the open, gap and commit
// appends each fail once after a partial write and are retried. The log
// must hold exactly one record per acknowledged append, and a run
// acknowledged as committed must come back intact after a restart.
func TestLifecycleAppendRetryLeavesOneRecord(t *testing.T) {
	ctx := context.Background()
	for _, op := range []string{"open write", "gap write", "commit write"} {
		root := t.TempDir()
		st, _, err := OpenStore(root, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		failed := false
		st.FaultFn = func(got string) error {
			if got != op || failed {
				return nil
			}
			failed = true
			return tornAppend(root, "r1", got)
		}
		w, err := st.Begin(ctx, "r1", RunMeta{Tenant: "t0", App: "a"})
		if err != nil {
			t.Fatalf("%s: begin: %v", op, err)
		}
		if _, _, err := w.PutSegment(ctx, segData(4, 1), 0); err != nil {
			t.Fatalf("%s: put: %v", op, err)
		}
		if err := w.MarkGap(ctx, 3); err != nil {
			t.Fatalf("%s: gap: %v", op, err)
		}
		if _, err := w.Commit(ctx, TraceStats{Transactions: 1, BodySHA256: "x"}); err != nil {
			t.Fatalf("%s: commit: %v", op, err)
		}
		if !failed {
			t.Fatalf("%s: the fault never fired", op)
		}
		log, err := os.ReadFile(logFile(root, "r1"))
		if err != nil {
			t.Fatal(err)
		}
		recs, _, damage := scanLog(log)
		var kinds []recKind
		for _, r := range recs {
			kinds = append(kinds, r.kind)
		}
		if want := []recKind{recOpen, recSegment, recGap, recCommit}; damage != "" || fmt.Sprint(kinds) != fmt.Sprint(want) {
			t.Fatalf("%s: log holds kinds %v (damage %q), want %v", op, kinds, damage, want)
		}
		st2, rec, err := OpenStore(root, fastOpts())
		if err != nil || len(rec.Intact) != 1 || len(rec.Quarantined) != 0 {
			t.Fatalf("%s: acknowledged commit not intact after restart: %v %s", op, err, rec)
		}
		if m, ok := st2.Manifest("r1"); !ok || m.UploadGapFrames != 3 {
			t.Fatalf("%s: manifest lost the gap: %+v", op, m)
		}
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

// TestOpenRecordKeepsHostileMeta: tenant/app strings that would collide
// with a text framing (spaces, newlines, quotes, braces, empty strings)
// round-trip through the JSON open record — the run stays resumable with
// its exact metadata across a restart. Metadata JSON cannot carry
// (invalid UTF-8) is refused up front.
func TestOpenRecordKeepsHostileMeta(t *testing.T) {
	for i, meta := range []RunMeta{
		{Tenant: "a b", App: "x\ny%z", Scale: 2, Seed: 9},
		{Tenant: "", App: "tail \r\n", Scale: 1, Seed: -3},
		{Tenant: "%", App: "%%25", Scale: 0, Seed: 0},
		{Tenant: `"},"app":"x`, App: "\\\u0000\x00\x7f", Scale: -1, Seed: 1 << 62},
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
			t.Fatalf("meta %+q damaged the log: %s", meta, rec)
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
	st, _, err := OpenStore(t.TempDir(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Begin(context.Background(), "bad-utf8", RunMeta{Tenant: "t\xff", App: "a"}); err == nil {
		t.Fatal("metadata with invalid UTF-8 accepted")
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
// flate cannot shrink.
func incompressible(n int) []byte {
	out := make([]byte, 0, n*trace.StoragePacketSize+sha256.Size)
	var block [sha256.Size]byte
	for len(out) < n*trace.StoragePacketSize {
		block = sha256.Sum256(block[:])
		out = append(out, block[:]...)
	}
	return out[:n*trace.StoragePacketSize]
}

// flateSegment builds the VZS1 container older stores wrote: the magic,
// then the segment through compress/flate at BestSpeed.
func flateSegment(t testing.TB, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("VZS1")
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSegmentCodecRoundTrip: every written segment record carries the raw
// VZS0 container and parses back to its frame bytes; a legacy VZS1
// container still decodes; a container with neither magic is damage.
func TestSegmentCodecRoundTrip(t *testing.T) {
	cases := map[string][]byte{
		"compressible":   segData(64, 0x5a),
		"incompressible": incompressible(64),
		"empty":          {},
	}
	for name, raw := range cases {
		rec, damage := parseRecord(segmentRecord(sha256.Sum256(raw), raw))
		if damage != "" {
			t.Fatalf("%s: written record damaged: %s", name, damage)
		}
		if string(rec.payload[:4]) != "VZS0" || len(rec.payload) != 4+len(raw) {
			t.Fatalf("%s: written segment is not the raw container: %q, %d bytes", name, rec.payload[:4], len(rec.payload))
		}
		if string(rec.raw) != string(raw) {
			t.Fatalf("%s: raw container round trip mutated the segment", name)
		}
		got, err := decodeSegment(flateSegment(t, raw))
		if err != nil {
			t.Fatalf("%s: legacy decode: %v", name, err)
		}
		if string(got) != string(raw) {
			t.Fatalf("%s: legacy container round trip mutated the segment", name)
		}
	}
	if _, err := decodeSegment(segData(2, 0x01)); err == nil {
		t.Fatal("container without codec magic decoded")
	}
}

// TestCommitRecordsCompression: the manifest of a committed run carries
// the on-disk byte total of its unique segments' containers and the
// raw/stored ratio, and the frame bytes read back as written. Segments are
// stored raw, so a deduped segment counts once and the ratio is just under 1.
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
	if want := uint64(len(segMagicRaw) + len(data)); m.StoredBytes != want {
		t.Fatalf("StoredBytes = %d, want one raw container of %d bytes", m.StoredBytes, want)
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

// TestPreLogLayoutQuarantined: run directories written by an older store
// — a segs/ tree with put/done journal records, or a journal beside a
// segment log — are not read; recovery moves them aside whole with their
// own reason.
func TestPreLogLayoutQuarantined(t *testing.T) {
	root := t.TempDir()
	journal := "3a1c0f2e open t0 a 1 7\n"
	seg := segData(4, 1)
	segLog := string(segmentRecord(sha256.Sum256(seg), seg))
	runs := map[string]map[string]string{
		"with-segs":     {"journal": journal, "segs/ab/x.seg": "raw"},
		"with-put-done": {"journal": journal + "5b2d1e4f put " + hashBytes(seg) + " 1024 4 0\n"},
		"with-segments": {"journal": journal, "segments": segLog},
	}
	for runID, files := range runs {
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
	if len(rec.Intact)+len(rec.Resumable) != 0 || len(rec.Quarantined) != len(runs) {
		t.Fatalf("pre-log runs not quarantined whole: %s", rec)
	}
	for runID := range runs {
		if !quarantinedAs(rec, runID, "run", preLogLayout) {
			t.Fatalf("%s not quarantined as a pre-log layout: %s", runID, rec)
		}
		if _, err := os.Stat(filepath.Join(root, ".quarantine", runID, "journal")); err != nil {
			t.Fatalf("%s not moved to .quarantine whole: %v", runID, err)
		}
	}
}

// TestTruncatedCompressedSegmentQuarantined: a cut flate stream in a legacy
// VZS1 record is verified damage — recovery must quarantine it, not serve
// it.
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
	// Replace the record with a VZS1 one around a cut flate stream with a
	// valid CRC, so only the codec can catch it.
	log, start, end := findRecord(t, root, "r1", data)
	stored := flateSegment(t, data)
	cut := appendRecord(log[:start:start], recSegment, sha256.Sum256(data), stored[:len(stored)-3])
	writeLog(t, root, "r1", append(cut, log[end:]...))
	_, rec, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(rec.Intact) != 0 || !quarantinedAs(rec, "r1", "log", "segment codec") {
		t.Fatalf("truncated compressed segment not quarantined: %s", rec)
	}
}

// legacyLog rewrites every segment record of a run log into a VZS1
// container, as older stores wrote each segment flate could shrink,
// re-sealing its CRC; each sum stays the sha256 of the raw frames.
func legacyLog(t testing.TB, log []byte) []byte {
	t.Helper()
	recs, _, damage := scanLog(log)
	if damage != "" {
		t.Fatalf("run log damaged: %s", damage)
	}
	var out []byte
	for _, r := range recs {
		payload := r.payload
		if r.kind == recSegment {
			payload = flateSegment(t, r.raw)
		}
		out = appendRecord(out, r.kind, r.sum, payload)
	}
	return out
}

// TestLegacyCompressedLogServes: logs written before segments were stored
// raw hold VZS1 (flate) segment records. A committed such run recovers
// intact and serves its frames byte for byte; an uncommitted one resumes
// with its segments deduped, and new segments land raw beside them.
func TestLegacyCompressedLogServes(t *testing.T) {
	root := t.TempDir()
	ctx := context.Background()
	st, _, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	meta := RunMeta{Tenant: "t0", App: "a"}
	// 16-frame segments of segData repeat every 256 bytes, so flate shrinks
	// them and an older store wrote them as VZS1.
	old := [][]byte{segData(16, 1), segData(16, 2)}
	segs := [][]byte{segData(16, 5), segData(16, 6), segData(16, 7)}
	write := func(runID string, segs [][]byte, commit bool) {
		w, err := st.Begin(ctx, runID, meta)
		if err != nil {
			t.Fatal(err)
		}
		for i, seg := range segs {
			if _, _, err := w.PutSegment(ctx, seg, uint32(16*i)); err != nil {
				t.Fatal(err)
			}
		}
		if !commit {
			w.Abort()
		} else if _, err := w.Commit(ctx, TraceStats{Replayable: true}); err != nil {
			t.Fatal(err)
		}
		log, _ := os.ReadFile(logFile(root, runID))
		legacy := legacyLog(t, log)
		if len(legacy) >= len(log) {
			t.Fatalf("%s: legacy log of %d bytes is not compressed (raw log %d bytes)", runID, len(legacy), len(log))
		}
		writeLog(t, root, runID, legacy)
	}
	write("old", old, true)
	write("partial", segs[:2], false)

	st, rec, err := OpenStore(root, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Intact) != 1 || len(rec.Resumable) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("legacy logs not recovered as one intact and one resumable run: %s", rec)
	}
	frames, _, err := st.ReadFrames(ctx, "old")
	if err != nil {
		t.Fatalf("read legacy run: %v", err)
	}
	if string(framesToBytes(frames)) != string(bytes.Join(old, nil)) {
		t.Fatal("legacy run serves different bytes than were written")
	}

	w, err := st.Begin(ctx, "partial", meta)
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range segs {
		if _, dedup, err := w.PutSegment(ctx, seg, uint32(16*i)); err != nil || dedup != (i < 2) {
			t.Fatalf("segment %d on resume: dedup=%v err=%v", i, dedup, err)
		}
	}
	if _, err := w.Commit(ctx, TraceStats{Replayable: true}); err != nil {
		t.Fatalf("commit after resume: %v", err)
	}
	st, rec, err = OpenStore(root, fastOpts())
	if err != nil || len(rec.Intact) != 2 {
		t.Fatalf("resumed legacy run not intact after restart: %v %s", err, rec)
	}
	frames, _, err = st.ReadFrames(ctx, "partial")
	if err != nil || string(framesToBytes(frames)) != string(bytes.Join(segs, nil)) {
		t.Fatalf("resumed legacy run reads back wrong: %v", err)
	}
}

// FuzzSegmentLog: the record parser must never panic on arbitrary bytes,
// must report damage whenever it stops short of the end, and the intact
// prefix it returns must re-encode byte for byte, for every record kind.
func FuzzSegmentLog(f *testing.F) {
	meta, _ := json.Marshal(RunMeta{Tenant: "t0", App: "a", Scale: 1, Seed: 7})
	manifest := sha256.Sum256([]byte("{}"))
	log := lifecycleRecord(recOpen, meta)
	for _, raw := range [][]byte{segData(4, 1), incompressible(2), segData(1, 9)} {
		log = append(log, segmentRecord(sha256.Sum256(raw), raw)...)
	}
	log = append(log, lifecycleRecord(recGap, binary.BigEndian.AppendUint64(nil, 5))...)
	log = append(log, lifecycleRecord(recCommit, manifest[:])...)
	f.Add([]byte{})
	f.Add(log)
	f.Add(log[:len(log)-7])
	f.Add(log[:logHeaderSize-1])
	bad := append([]byte{}, log...)
	bad[9] ^= 0xff
	f.Add(bad)
	f.Add(lifecycleRecord(recOpen, []byte("{")))
	f.Add(lifecycleRecord(recGap, []byte{1, 2, 3}))
	f.Add(lifecycleRecord(recCommit, manifest[:8]))
	f.Add(legacyLog(f, log))
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
			again = appendRecord(again, r.kind, r.sum, r.payload)
		}
		if string(again) != string(data[:intact]) {
			t.Fatal("intact prefix does not re-encode byte for byte")
		}
	})
}

// ---- write and commit cost ----

// TestPutSegmentAllocationBound: appending a 16-frame segment allocates
// its log record and little else — no per-segment codec state or output.
// Averaged over 64 appends of distinct content flate cannot shrink.
func TestPutSegmentAllocationBound(t *testing.T) {
	st, _, err := OpenStore(t.TempDir(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, err := st.Begin(ctx, "r1", RunMeta{Tenant: "t0", App: "a"})
	if err != nil {
		t.Fatal(err)
	}
	const n, size = 64, 16 * trace.StoragePacketSize
	segs := make([][]byte, n)
	for i := range segs {
		segs[i] = incompressible(16)
		binary.BigEndian.PutUint32(segs[i], uint32(i))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, seg := range segs {
		if _, dedup, err := w.PutSegment(ctx, seg, uint32(16*i)); err != nil || dedup {
			t.Fatalf("put %d: dedup=%v err=%v", i, dedup, err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got > 3*size {
		t.Fatalf("one PutSegment of %d bytes allocates %d bytes, want at most %d", size, got, 3*size)
	}
}

// BenchmarkPutSegment: one 16-frame segment appended to a run log and
// fsync'd.
func BenchmarkPutSegment(b *testing.B) {
	st, _, err := OpenStore(b.TempDir(), fastOpts())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	w, err := st.Begin(ctx, "r1", RunMeta{Tenant: "t0", App: "a"})
	if err != nil {
		b.Fatal(err)
	}
	seg := segData(16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint32(seg, uint32(i)) // distinct content: no dedup
		if _, _, err := w.PutSegment(ctx, seg, uint32(16*i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommit: a recording uploaded as 16-frame segments, then
// committed as the service does: read back, decoded, hashed, sealed.
func BenchmarkCommit(b *testing.B) {
	frames := recordedTrace(b).Frames()
	st, _, err := OpenStore(b.TempDir(), fastOpts())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := st.Begin(ctx, fmt.Sprintf("r%d", i), RunMeta{Tenant: "t0", App: "dma-irq", Scale: 1, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < len(frames); off += 16 {
			if _, _, err := w.PutSegment(ctx, framesToBytes(frames[off:min(off+16, len(frames))]), uint32(off)); err != nil {
				b.Fatal(err)
			}
		}
		segs, err := w.readBack(ctx)
		if err != nil {
			b.Fatal(err)
		}
		tr, sum, err := decodeSegments(segs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Commit(ctx, TraceStats{Transactions: tr.TotalTransactions(), BodySHA256: sum, Replayable: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- read cost ----

// storeRecording commits the dma-irq recording as 16-frame segments, as
// both serve workloads upload it, and returns its manifest.
func storeRecording(tb testing.TB, st *Store, runID string) *Manifest {
	tb.Helper()
	tr := recordedTrace(tb)
	frames := tr.Frames()
	ctx := context.Background()
	w, err := st.Begin(ctx, runID, RunMeta{Tenant: "t0", App: "dma-irq", Scale: 1, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	for off := 0; off < len(frames); off += 16 {
		if _, _, err := w.PutSegment(ctx, framesToBytes(frames[off:min(off+16, len(frames))]), uint32(off)); err != nil {
			tb.Fatal(err)
		}
	}
	sum := sha256.Sum256(tr.Bytes())
	m, err := w.Commit(ctx, TraceStats{Transactions: tr.TotalTransactions(), BodySHA256: hex.EncodeToString(sum[:]), Replayable: true})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestReadFramesAllocationBound: reading a committed run allocates the
// buffer the log is read into and the frames it is copied into once, and
// little else. Joining the segments into one body before framing it, or
// collecting every parsed record, breaks the bound.
func TestReadFramesAllocationBound(t *testing.T) {
	st, _, err := OpenStore(t.TempDir(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	m := storeRecording(t, st, "r1")
	if len(m.Segments) != 19 {
		t.Fatalf("recording stored as %d segments, want 19", len(m.Segments))
	}
	ctx := context.Background()
	const n = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, _, err := st.ReadFrames(ctx, "r1"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got, limit := (after.TotalAlloc-before.TotalAlloc)/n, 3*m.Bytes; got > limit {
		t.Fatalf("one ReadFrames of a %d-byte run allocates %d bytes, want at most %d", m.Bytes, got, limit)
	}
}

// BenchmarkReadFrames: one verified read of a committed 19-segment run.
func BenchmarkReadFrames(b *testing.B) {
	st, _, err := OpenStore(b.TempDir(), fastOpts())
	if err != nil {
		b.Fatal(err)
	}
	storeRecording(b, st, "r1")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.ReadFrames(ctx, "r1"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLegacyFlate: per bundled app, what the per-segment flate codec
// of older stores buys on a scale-1 recording cut into 16-frame segments.
// flate_ratio is raw/stored bytes as that codec stored them (VZS1, or VZS0
// where flate did not shrink a segment), raw_extra_pct the extra disk the
// raw containers written now take, ns/op the flate CPU per recording, and
// whole_ratio what flate reaches on the recording's stream in one piece.
func BenchmarkLegacyFlate(b *testing.B) {
	for _, app := range apps.Names() {
		b.Run(app, func(b *testing.B) {
			res, err := eval.Run(eval.RunConfig{App: app, Scale: 1, Seed: 42, Cfg: eval.R2})
			if err != nil {
				b.Fatal(err)
			}
			frames := res.Trace.Frames()
			var buf bytes.Buffer
			zw, err := flate.NewWriter(&buf, flate.BestSpeed)
			if err != nil {
				b.Fatal(err)
			}
			var stored, segs int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stored, segs = 0, 0
				for off := 0; off < len(frames); off += 16 {
					seg := framesToBytes(frames[off:min(off+16, len(frames))])
					buf.Reset()
					zw.Reset(&buf)
					if _, err := zw.Write(seg); err != nil {
						b.Fatal(err)
					}
					if err := zw.Close(); err != nil {
						b.Fatal(err)
					}
					stored += len(segMagicRaw) + min(buf.Len(), len(seg))
					segs++
				}
			}
			raw := len(frames) * trace.StoragePacketSize
			b.ReportMetric(float64(raw)/float64(stored), "flate_ratio")
			b.ReportMetric(100*(float64(raw+len(segMagicRaw)*segs)/float64(stored)-1), "raw_extra_pct")
			b.ReportMetric(float64(raw)/float64(len(flateSegment(b, framesToBytes(frames)))-len(segMagicFlate)), "whole_ratio")
		})
	}
}
