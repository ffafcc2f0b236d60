package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"vidi/internal/core"
	"vidi/internal/eval"
	"vidi/internal/trace"
)

// Job kinds.
const (
	JobReplay   = "replay"   // re-execute the run's trace (R3) and compare
	JobCompare  = "compare"  // compare two stored runs' traces directly
	JobDiagnose = "diagnose" // replay, then classify divergences into findings
)

// Job is one queued replay/compare/diagnose request and its result.
type Job struct {
	ID    string `json:"job_id"`
	Kind  string `json:"kind"`
	RunID string `json:"run_id"`
	// RefRunID is the reference run for compare jobs.
	RefRunID string `json:"ref_run_id,omitempty"`
	// RequestID is the id of the HTTP request that submitted the job —
	// the correlation key between a client's request log and the job's
	// server-side outcome.
	RequestID string `json:"request_id,omitempty"`
	// Status is queued → running → done | failed.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Result fields, populated on done.
	Clean       *bool    `json:"clean,omitempty"`
	Divergences int      `json:"divergences,omitempty"`
	Unrecorded  uint64   `json:"unrecorded,omitempty"`
	Report      string   `json:"report,omitempty"`
	Findings    []string `json:"findings,omitempty"`

	done chan struct{}
	// Retention, guarded by the pool's mutex: a finished job's element in
	// the pool's unread or read list, and the pool's finish count when its
	// terminal state was first returned (0 until then: by the time a job
	// has finished, the count is at least 1).
	elem   *list.Element
	readAt uint64
}

// snapshot is a copy of the job that is safe to marshal concurrently.
func (j *Job) snapshot() *Job {
	cp := *j
	cp.done, cp.elem = nil, nil
	return &cp
}

// A job id that is not in the pool's table was either never issued (404)
// or belongs to a finished job the pool has retired (410).
var (
	errNoJob      = errors.New("unknown job")
	errJobExpired = errors.New("job finished and its result was retired")
)

// jobPool is the bounded worker pool: a fixed queue, a fixed worker count,
// and a hard per-job timeout — a wedged replay fails a job, never the
// service.
//
// Its job table is bounded too. Queued and running jobs always stay. A
// finished job stays until its terminal state has been returned once, by
// GET /v1/jobs/{id} or ?wait, and then until readJobs more jobs have
// finished, so a retried read still finds it. At most unreadJobs finished
// jobs that were never returned stay, oldest first out. A retired id
// answers 410 job_expired.
type jobPool struct {
	store  *Store
	limits Limits
	met    *metrics
	log    *slog.Logger

	queue  chan *Job
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	seq      int       // ids issued: job-1 … job-seq
	finished uint64    // jobs finished so far
	unread   list.List // finished, never returned; oldest finish first
	read     list.List // finished and returned; oldest first return first
}

func newJobPool(store *Store, limits Limits, met *metrics) *jobPool {
	ctx, cancel := context.WithCancel(context.Background())
	p := &jobPool{
		store:  store,
		limits: limits,
		met:    met,
		queue:  make(chan *Job, limits.queuedJobs()),
		ctx:    ctx,
		cancel: cancel,
		jobs:   map[string]*Job{},
	}
	for i := 0; i < limits.workers(); i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *jobPool) close() {
	p.cancel()
	p.wg.Wait()
	// Workers are gone; anything still queued would otherwise stay
	// "queued" forever and leave wait() callers blocked to their deadline.
	for {
		select {
		case j := <-p.queue:
			p.finish(j, errors.New("serve: server shutting down"))
		default:
			return
		}
	}
}

func (p *jobPool) queued() int { return len(p.queue) }

// submit validates and enqueues a job and returns its queued snapshot; a
// full queue is an admission rejection (503: the server's backlog, not the
// caller's quota). reqID is the submitting request's id, kept on the job
// for correlation.
func (p *jobPool) submit(kind, runID, refRunID, reqID string) (*Job, error) {
	switch kind {
	case JobReplay, JobDiagnose:
	case JobCompare:
		if refRunID == "" {
			return nil, fmt.Errorf("serve: compare job needs ref_run_id")
		}
		refM, ok := p.store.Manifest(refRunID)
		if !ok {
			return nil, fmt.Errorf("serve: unknown reference run %s", refRunID)
		}
		if !refM.Replayable {
			return nil, fmt.Errorf("serve: reference run %s is not replayable (degraded upload)", refRunID)
		}
	default:
		return nil, fmt.Errorf("serve: unknown job kind %q", kind)
	}
	m, ok := p.store.Manifest(runID)
	if !ok {
		return nil, fmt.Errorf("serve: unknown run %s", runID)
	}
	// Every job kind decodes the run's frame stream, so an upload-gapped
	// (non-replayable) run is rejected up front for all of them — honest
	// degradation must never surface as a corruption-flavored job failure.
	if !m.Replayable {
		return nil, fmt.Errorf("serve: run %s is not replayable (degraded upload)", runID)
	}

	// The job enters the queue and the table under one lock: a worker
	// cannot touch it before it is in the table, and a rejected job takes
	// no id, so every issued id was once a queued job.
	p.mu.Lock()
	defer p.mu.Unlock()
	j := &Job{
		ID:        fmt.Sprintf("job-%d", p.seq+1),
		Kind:      kind,
		RunID:     runID,
		RefRunID:  refRunID,
		RequestID: reqID,
		Status:    "queued",
		done:      make(chan struct{}),
	}
	select {
	case p.queue <- j:
		p.seq++
		p.jobs[j.ID] = j
		return j.snapshot(), nil
	default:
		return nil, &AdmissionError{
			Status:     http.StatusServiceUnavailable,
			Code:       "job_queue_full",
			Detail:     fmt.Sprintf("job queue at its %d-entry limit", p.limits.queuedJobs()),
			RetryAfter: 5 * p.limits.jobTimeout() / 10,
		}
	}
}

// find returns the table's job for id, or errNoJob or errJobExpired. The
// caller holds p.mu.
func (p *jobPool) find(id string) (*Job, error) {
	if j, ok := p.jobs[id]; ok {
		return j, nil
	}
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err == nil && n >= 1 && n <= p.seq && id == fmt.Sprintf("job-%d", n) {
		return nil, errJobExpired
	}
	return nil, errNoJob
}

// get returns a snapshot of a job; a terminal one counts as returned.
func (p *jobPool) get(id string) (*Job, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, err := p.find(id)
	if err != nil {
		return nil, err
	}
	return p.report(j), nil
}

// report snapshots j and, if it has finished, moves it to the read list
// the first time. The caller holds p.mu. A job retired meanwhile is still
// snapshotted from the caller's pointer, never looked up again.
func (p *jobPool) report(j *Job) *Job {
	if j.elem != nil && j.readAt == 0 {
		p.unread.Remove(j.elem)
		j.readAt = p.finished
		j.elem = p.read.PushBack(j)
	}
	return j.snapshot()
}

// retire evicts finished jobs past the retention bounds. The caller holds
// p.mu.
func (p *jobPool) retire() {
	evict := func(l *list.List, e *list.Element) {
		j := l.Remove(e).(*Job)
		j.elem = nil
		delete(p.jobs, j.ID)
	}
	for p.unread.Len() > p.limits.unreadJobs() {
		evict(&p.unread, p.unread.Front())
	}
	for e := p.read.Front(); e != nil && p.finished-e.Value.(*Job).readAt >= uint64(p.limits.readJobs()); e = p.read.Front() {
		evict(&p.read, e)
	}
}

// list returns snapshots of all retained jobs, by id.
func (p *jobPool) list() []*Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Job, 0, len(p.jobs))
	for _, j := range p.jobs {
		out = append(out, j.snapshot())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// wait blocks until the job finishes or ctx expires, and returns it.
func (p *jobPool) wait(ctx context.Context, id string) (*Job, error) {
	p.mu.Lock()
	j, err := p.find(id)
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	//lint:detaudit completion-vs-deadline race only chooses between returning the finished job and a timeout error; the job's stored result is committed either way
	select {
	case <-j.done:
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.report(j), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (p *jobPool) worker() {
	defer p.wg.Done()
	for {
		//lint:detaudit shutdown-vs-dispatch race: a worker draining one more job versus exiting does not change any job's replay verdict, only when the pool quiesces
		select {
		case <-p.ctx.Done():
			return
		case j := <-p.queue:
			p.setStatus(j, "running")
			ctx, cancel := context.WithTimeout(p.ctx, p.limits.jobTimeout())
			err := p.run(ctx, j)
			cancel()
			p.finish(j, err)
		}
	}
}

func (p *jobPool) setStatus(j *Job, s string) {
	p.mu.Lock()
	j.Status = s
	p.mu.Unlock()
}

func (p *jobPool) finish(j *Job, err error) {
	p.mu.Lock()
	if err != nil {
		j.Status = "failed"
		j.Error = err.Error()
	} else {
		j.Status = "done"
	}
	j.elem = p.unread.PushBack(j)
	p.finished++
	p.retire()
	cp := j.snapshot()
	p.mu.Unlock()
	close(j.done)
	if err != nil {
		p.met.jobsFailed.Add(1)
	} else {
		p.met.jobsDone.Add(1)
	}
	if p.log != nil {
		level := slog.LevelInfo
		if err != nil {
			level = slog.LevelError
		}
		p.log.LogAttrs(context.Background(), level, "job",
			slog.String("job_id", cp.ID),
			slog.String("kind", cp.Kind),
			slog.String("run_id", cp.RunID),
			slog.String("request_id", cp.RequestID),
			slog.String("status", cp.Status),
			slog.String("error", cp.Error),
			slog.Int("divergences", cp.Divergences),
		)
	}
}

// loadTrace reads a committed run's frames with full verification, decodes
// the trace, and cross-checks the manifest's end-to-end body hash.
func (p *jobPool) loadTrace(ctx context.Context, runID string) (*trace.Trace, *Manifest, error) {
	segs, m, err := p.store.readRun(runID)
	if err != nil {
		p.noteIfCorrupt(err)
		return nil, nil, err
	}
	tr, h, err := decodeSegments(segs)
	if err != nil {
		err = &CorruptRunError{RunID: runID, Artifact: "stream", Reason: err.Error()}
		p.noteIfCorrupt(err)
		return nil, nil, err
	}
	if h != m.BodySHA256 {
		err = &CorruptRunError{RunID: runID, Artifact: "body",
			Reason: "decoded body hash does not match manifest"}
		p.noteIfCorrupt(err)
		return nil, nil, err
	}
	return tr, m, nil
}

// noteIfCorrupt counts the quarantined metric only for verified corruption;
// transient read faults and deadlines pass through without it.
func (p *jobPool) noteIfCorrupt(err error) {
	var cre *CorruptRunError
	if errors.As(err, &cre) {
		p.met.quarantined.Add(1)
	}
}

func (p *jobPool) run(ctx context.Context, j *Job) error {
	tr, m, err := p.loadTrace(ctx, j.RunID)
	if err != nil {
		return err
	}
	switch j.Kind {
	case JobCompare:
		ref, _, err := p.loadTrace(ctx, j.RefRunID)
		if err != nil {
			return err
		}
		rep, err := core.Compare(ref, tr)
		if err != nil {
			return err
		}
		p.record(j, rep, nil)
		return nil
	case JobReplay, JobDiagnose:
		rep, _, err := eval.ReplayVerify(m.App, m.Scale, m.Seed, tr, p.limits.MaxReplayCycles)
		if err != nil {
			return err
		}
		// Degradation accounting must close the loop: the replay's
		// unrecorded count has to match what the manifest promised at
		// commit, or coverage silently shifted between store and replay.
		if rep.Unrecorded != m.Unrecorded {
			return fmt.Errorf("serve: run %s: replay reported %d unrecorded transactions, manifest recorded %d",
				j.RunID, rep.Unrecorded, m.Unrecorded)
		}
		var findings []core.Finding
		if j.Kind == JobDiagnose && !rep.Clean() {
			findings = core.Diagnose(rep, tr)
		}
		p.record(j, rep, findings)
		return nil
	}
	return fmt.Errorf("serve: unknown job kind %q", j.Kind)
}

func (p *jobPool) record(j *Job, rep *core.Report, findings []core.Finding) {
	clean := rep.Clean()
	p.mu.Lock()
	j.Clean = &clean
	j.Divergences = len(rep.Divergences)
	j.Unrecorded = rep.Unrecorded
	j.Report = rep.String()
	for _, f := range findings {
		j.Findings = append(j.Findings,
			fmt.Sprintf("%s: channel %s ×%d: %s", f.Kind, f.Channel, f.Count, f.Detail))
	}
	p.mu.Unlock()
	p.met.divergences.Add(uint64(len(rep.Divergences)))
	p.met.unrecorded.Add(rep.Unrecorded)
}
