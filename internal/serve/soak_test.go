package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"testing"
)

// TestSoakJobRetention drives an in-process server through many times its
// job retention bound, with recording sessions in between, and checks
// that nothing it holds grows with the work it has done:
//   - the job table, and GET /v1/jobs, stay within the retention bound;
//   - a job just read, and a finished job nobody has read, are still
//     served;
//   - a retired job answers 410 job_expired, a typed client error;
//   - the live heap after a GC does not grow from the first third of the
//     run to the last by more than soakHeapSlack.
func TestSoakJobRetention(t *testing.T) {
	// A one-job queue and one worker keep the bound small, so the soak
	// passes it many times over in a few seconds.
	limits := Limits{MaxQueuedJobs: 1, Workers: 1}
	bound := limits.queuedJobs() + limits.workers() + limits.unreadJobs() + limits.readJobs()
	const (
		rounds        = 3
		jobsPerRound  = 300 // about 7 times the bound over the run
		sessPerRound  = 80
		soakHeapSlack = 160 << 10
	)
	ls, cl := newTestServer(t, limits)
	cl.SegmentFrames = 64
	ctx := context.Background()
	tr := recordedTrace(t)
	for _, id := range []string{"soak-ref", "soak-val"} {
		sess, err := cl.OpenSession(ctx, id, RunMeta{Tenant: "soak", App: "dma-irq", Scale: 1, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.UploadTrace(ctx, sess.SessionID, tr); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Commit(ctx, sess.SessionID); err != nil {
			t.Fatal(err)
		}
	}
	pool := ls.server.jobs
	// finished waits for a job without returning its result to anyone.
	finished := func(id string) {
		pool.mu.Lock()
		j := pool.jobs[id]
		pool.mu.Unlock()
		<-j.done
	}
	checkBound := func() {
		pool.mu.Lock()
		n := len(pool.jobs)
		pool.mu.Unlock()
		var list struct{ Jobs []*Job }
		if err := cl.doJSON(ctx, http.MethodGet, "/v1/jobs", nil, &list); err != nil {
			t.Fatal(err)
		}
		if n > bound || len(list.Jobs) > bound {
			t.Fatalf("job table holds %d jobs and GET /v1/jobs lists %d, bound %d", n, len(list.Jobs), bound)
		}
	}

	var firstUnread, lastUnread string
	var heap [rounds]uint64
	for r := 0; r < rounds; r++ {
		for i := 0; i < sessPerRound; i++ {
			// Every session uploads the same run and aborts it, so the
			// store keeps one resumable run however many sessions pass.
			sess, err := cl.OpenSession(ctx, "soak-up", RunMeta{Tenant: "soak", App: "dma-irq", Scale: 1, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.UploadTrace(ctx, sess.SessionID, tr); err != nil {
				t.Fatal(err)
			}
			if err := cl.Abort(ctx, sess.SessionID); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < jobsPerRound; i++ {
			sub, err := cl.SubmitJob(ctx, JobCompare, "soak-val", "soak-ref")
			if err != nil {
				t.Fatal(err)
			}
			id := sub.ID
			if i%4 == 3 {
				finished(id)
				if firstUnread == "" {
					firstUnread = id
				}
				lastUnread = id
			} else if j, err := cl.WaitJob(ctx, id); err != nil || j.Status != "done" || !*j.Clean {
				t.Fatalf("job %s: %+v, %v", id, j, err)
			}
			if i%50 == 0 {
				// A retried read finds the job it has just read.
				if _, err := cl.GetJob(ctx, id); err != nil {
					t.Fatalf("re-reading job %s: %v", id, err)
				}
				checkBound()
			}
		}
		checkBound()
		runtime.GC() // twice: the first only moves pooled objects to the victim cache
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap[r] = ms.HeapAlloc
	}

	t.Logf("live heap after GC per round: %v bytes", heap)
	j, err := cl.GetJob(ctx, lastUnread)
	if err != nil || j.Status != "done" {
		t.Fatalf("unread finished job %s: %+v, %v", lastUnread, j, err)
	}
	_, err = cl.GetJob(ctx, firstUnread)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusGone || ae.Code != "job_expired" {
		t.Fatalf("retired job %s: got %v, want 410 job_expired", firstUnread, err)
	}
	if _, err := cl.GetJob(ctx, fmt.Sprintf("job-%d", rounds*jobsPerRound+1)); !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("never-issued job: got %v, want 404", err)
	}
	if heap[rounds-1] > heap[0]+soakHeapSlack {
		t.Fatalf("live heap grew from %d to %d bytes over the soak, slack %d", heap[0], heap[rounds-1], soakHeapSlack)
	}
}
