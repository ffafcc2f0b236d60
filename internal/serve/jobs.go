package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
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
}

// jobPool is the bounded worker pool: a fixed queue, a fixed worker count,
// and a hard per-job timeout — a wedged replay fails a job, never the
// service.
type jobPool struct {
	store  *Store
	limits Limits
	met    *metrics
	log    *slog.Logger

	queue  chan *Job
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*Job
	seq  int
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

// submit validates and enqueues a job; a full queue is an admission
// rejection (503: the server's backlog, not the caller's quota). reqID is
// the submitting request's id, kept on the job for correlation.
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

	p.mu.Lock()
	p.seq++
	j := &Job{
		ID:        fmt.Sprintf("job-%d", p.seq),
		Kind:      kind,
		RunID:     runID,
		RefRunID:  refRunID,
		RequestID: reqID,
		Status:    "queued",
		done:      make(chan struct{}),
	}
	p.jobs[j.ID] = j
	p.mu.Unlock()

	select {
	case p.queue <- j:
		return j, nil
	default:
		p.mu.Lock()
		delete(p.jobs, j.ID)
		p.mu.Unlock()
		return nil, &AdmissionError{
			Status:     http.StatusServiceUnavailable,
			Code:       "job_queue_full",
			Detail:     fmt.Sprintf("job queue at its %d-entry limit", p.limits.queuedJobs()),
			RetryAfter: 5 * p.limits.jobTimeout() / 10,
		}
	}
}

// get returns a snapshot copy of a job (safe to marshal concurrently).
func (p *jobPool) get(id string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return nil, false
	}
	cp := *j
	cp.done = nil
	return &cp, true
}

// list returns snapshot copies of all jobs, by id.
func (p *jobPool) list() []*Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Job, 0, len(p.jobs))
	for _, j := range p.jobs {
		cp := *j
		cp.done = nil
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// wait blocks until the job finishes or ctx expires (test/chaos helper).
func (p *jobPool) wait(ctx context.Context, id string) (*Job, error) {
	p.mu.Lock()
	j, ok := p.jobs[id]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: unknown job %s", id)
	}
	//lint:detaudit completion-vs-deadline race only chooses between returning the finished job and a timeout error; the job's stored result is committed either way
	select {
	case <-j.done:
		return p.mustGet(id), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (p *jobPool) mustGet(id string) *Job {
	j, _ := p.get(id)
	return j
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
	cp := *j
	p.mu.Unlock()
	close(j.done)
	if err != nil {
		p.met.jobsFailed.v.Add(1)
	} else {
		p.met.jobsDone.v.Add(1)
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
	frames, m, err := p.store.ReadFrames(ctx, runID)
	if err != nil {
		p.noteIfCorrupt(err)
		return nil, nil, err
	}
	tr, h, err := decodeFrames(frames)
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
		p.met.quarantined.v.Add(1)
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
	p.met.divergences.v.Add(uint64(len(rep.Divergences)))
	p.met.unrecorded.v.Add(rep.Unrecorded)
}
