package cluster

// Tests of what a hand-out costs, not of what it decides: the lease that
// rides on a report's ack, the long-polled lease request, and the worker's
// per-lease set-up (one connection, one compiled plan per job). The fencing
// and merge rules these paths share with the plain protocol are covered in
// cluster_test.go; here every scenario ends on the exact single-node count.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ohminer/internal/dal"
	"ohminer/internal/engine"
)

// TestReportLeaseNext: a complete, merged report that asks for it is acked
// with the next lease; every other report — the old shape, a fenced one, a
// failed one, a partial one — gets the answer it always got and no lease.
func TestReportLeaseNext(t *testing.T) {
	t.Run("split=0", func(t *testing.T) {
		store, pat, want := starWorkload(t)
		c, srv := testCluster(t, store, Config{LeaseTTL: 10 * time.Second, Parts: 6, MaxTaskFailures: 5, now: newFakeClock().Now})
		if _, err := c.StartJob("j", JobSpec{Pattern: pat}); err != nil {
			t.Fatal(err)
		}
		report := func(lease *Lease, edit func(*Report)) (int, ReportAck) {
			t.Helper()
			rep := mineLease(t, store, lease)
			rep.Worker = "w1"
			if edit != nil {
				edit(&rep)
			}
			var ack ReportAck
			return postJSON(t, srv, "/cluster/report", rep, &ack), ack
		}
		first := leaseAs(t, srv, store, "w1")

		// Asked for: the ack hands over the next task, leased to w1.
		code, ack := report(first, func(r *Report) { r.LeaseNext = true })
		if code != http.StatusOK || !ack.Merged || ack.Lease == nil {
			t.Fatalf("report with lease_next: status %d ack %+v", code, ack)
		}
		second := ack.Lease
		if second.Task == first.Task || second.Epoch != 1 || second.Pattern != pat || len(second.Snapshot) == 0 || second.TTLMS != 10_000 {
			t.Fatalf("lease on the ack: %+v", second)
		}
		if st, _ := c.JobStatusByID("j"); st.Tasks[second.Task].State != taskLeased || st.Tasks[second.Task].Worker != "w1" {
			t.Fatalf("task %d after the ack: %+v", second.Task, st.Tasks[second.Task])
		}

		// Not asked for (the pre-existing request shape): merged, no lease.
		code, ack = report(second, nil)
		if code != http.StatusOK || !ack.Merged || ack.Lease != nil {
			t.Fatalf("report without lease_next: status %d ack %+v", code, ack)
		}
		granted := c.Status().Leases

		// Fenced (a duplicate of a merged report): 410 and no lease.
		if code, ack = report(second, func(r *Report) { r.LeaseNext = true }); code != http.StatusGone || ack.Lease != nil {
			t.Fatalf("fenced report: status %d ack %+v, want 410 and no lease", code, ack)
		}
		// Failed: the task is requeued, the worker gets nothing.
		third := leaseAs(t, srv, store, "w1")
		if code, ack = report(third, func(r *Report) {
			*r = Report{Worker: "w1", Job: r.Job, Task: r.Task, Epoch: r.Epoch, Error: "boom", LeaseNext: true}
		}); code != http.StatusOK || ack.Lease != nil {
			t.Fatalf("failed report: status %d ack %+v, want 200 and no lease", code, ack)
		}
		// Partial (the whole range handed back as the remainder): merged
		// and spilled, no lease.
		fourth := leaseAs(t, srv, store, "w1")
		if code, ack = report(fourth, func(r *Report) {
			*r = Report{Worker: "w1", Job: r.Job, Task: r.Task, Epoch: r.Epoch, Remainder: fourth.Snapshot, LeaseNext: true}
		}); code != http.StatusOK || ack.Lease != nil {
			t.Fatalf("partial report: status %d ack %+v, want 200 and no lease", code, ack)
		}
		if got := c.Status().Leases; got != granted+2 {
			t.Fatalf("%d leases granted, want %d: only the two /cluster/lease calls may have granted", got, granted+2)
		}

		// A worker living on acks alone drains the rest.
		lease := leaseAs(t, srv, store, "w1")
		for n := 0; lease != nil; n++ {
			if n > 20 {
				t.Fatal("job never drained")
			}
			if code, ack = report(lease, func(r *Report) { r.LeaseNext = true }); code != http.StatusOK {
				t.Fatalf("report: status %d", code)
			}
			lease = ack.Lease
		}
		st, _ := c.JobStatusByID("j")
		if st.State != "done" || st.Ordered != want || st.Spilled != 1 || st.Failures != 1 {
			t.Fatalf("after draining on acks: %+v, want done/%d with one spill and one failure", st, want)
		}
	})
}

// TestLostAckLeaseReclaimedByTTL: the ack that carried a lease never reaches
// the worker. Nobody mines or renews that lease, so it expires like any
// other, is granted again one epoch later, and a late report at the lost
// epoch is fenced — exactly once.
func TestLostAckLeaseReclaimedByTTL(t *testing.T) {
	store, pat, want := starWorkload(t)
	clk := newFakeClock()
	c, srv := testCluster(t, store, Config{LeaseTTL: 10 * time.Second, Parts: 2, now: clk.Now})
	if _, err := c.StartJob("j", JobSpec{Pattern: pat}); err != nil {
		t.Fatal(err)
	}
	first := leaseAs(t, srv, store, "w1")
	rep := mineLease(t, store, first)
	rep.Worker, rep.LeaseNext = "w1", true
	var lost ReportAck // the test reads it; w1 never does
	if code := postJSON(t, srv, "/cluster/report", rep, &lost); code != http.StatusOK || lost.Lease == nil {
		t.Fatalf("report: status %d ack %+v", code, lost)
	}
	if again := leaseAs(t, srv, store, "w2"); again != nil {
		t.Fatalf("task %d granted twice within its TTL", again.Task)
	}

	clk.Advance(11 * time.Second)
	regrant := leaseAs(t, srv, store, "w2")
	if regrant == nil || regrant.Task != lost.Lease.Task || regrant.Epoch != lost.Lease.Epoch+1 {
		t.Fatalf("after the TTL: %+v, want task %d at epoch %d", regrant, lost.Lease.Task, lost.Lease.Epoch+1)
	}
	late := mineLease(t, store, lost.Lease)
	late.Worker = "w1"
	if code := postJSON(t, srv, "/cluster/report", late, nil); code != http.StatusGone {
		t.Fatalf("report at the lost epoch: status %d, want 410", code)
	}
	done := mineLease(t, store, regrant)
	done.Worker = "w2"
	if code := postJSON(t, srv, "/cluster/report", done, nil); code != http.StatusOK {
		t.Fatalf("report of the re-granted lease: status %d", code)
	}
	st, _ := c.JobStatusByID("j")
	if st.State != "done" || st.Ordered != want || st.Reassigned != 1 || st.Fenced != 1 {
		t.Fatalf("%+v, want done/%d with one reassignment and one fenced report", st, want)
	}
}

// leaseAnswer is how a lease request ended: the status code (-1 for a
// client-side error), the lease of a 200, and how long the answer took.
type leaseAnswer struct {
	code  int
	lease Lease
	took  time.Duration
}

// parkLease posts a long-polled lease request in the background and returns
// once the coordinator has seen the worker; the answer arrives on the channel.
func parkLease(t *testing.T, ctx context.Context, c *Coordinator, srv *httptest.Server, store *dal.Store, worker string, wait time.Duration) <-chan leaseAnswer {
	t.Helper()
	body, err := json.Marshal(LeaseRequest{Worker: worker, GraphFP: store.Hypergraph().Fingerprint(), WaitMS: wait.Milliseconds()})
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan leaseAnswer, 1)
	go func() {
		t0 := time.Now()
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/cluster/lease", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- leaseAnswer{code: -1, took: time.Since(t0)}
			return
		}
		defer resp.Body.Close()
		ans := leaseAnswer{code: resp.StatusCode}
		if resp.StatusCode == http.StatusOK {
			_ = json.NewDecoder(resp.Body).Decode(&ans.lease)
		}
		ans.took = time.Since(t0)
		out <- ans
	}()
	waitFor(t, 5*time.Second, worker+" never reached the coordinator", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.workers[worker] != nil
	})
	return out
}

func awaitAnswer(t *testing.T, ch <-chan leaseAnswer, what string) leaseAnswer {
	t.Helper()
	select {
	case ans := <-ch:
		return ans
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: the parked lease request was never answered", what)
		return leaseAnswer{}
	}
}

// TestLeaseLongPoll: a lease request with wait_ms parks instead of answering
// 204, is woken by a job being admitted and by a task being requeued, answers
// 204 once wait_ms pass, and is let go by Close and by its client hanging up
// — leaving no goroutine behind.
func TestLeaseLongPoll(t *testing.T) {
	store, pat, _ := starWorkload(t)
	const long = 20 * time.Second // far beyond the test: only a wake-up ends it

	t.Run("wakes-on-StartJob", func(t *testing.T) {
		c, srv := testCluster(t, store, Config{Parts: 2})
		ch := parkLease(t, context.Background(), c, srv, store, "w1", long)
		if _, err := c.StartJob("j", JobSpec{Pattern: pat}); err != nil {
			t.Fatal(err)
		}
		if ans := awaitAnswer(t, ch, "StartJob"); ans.code != http.StatusOK || ans.lease.Job != "j" || ans.lease.Epoch != 1 {
			t.Fatalf("after StartJob: %+v", ans)
		}
	})

	t.Run("wakes-on-requeue", func(t *testing.T) {
		c, srv := testCluster(t, store, Config{Parts: 1})
		if _, err := c.StartJob("j", JobSpec{Pattern: pat}); err != nil {
			t.Fatal(err)
		}
		held := leaseAs(t, srv, store, "w1")
		ch := parkLease(t, context.Background(), c, srv, store, "w2", long)
		failed := Report{Worker: "w1", Job: held.Job, Task: held.Task, Epoch: held.Epoch, Error: "boom"}
		if code := postJSON(t, srv, "/cluster/report", failed, nil); code != http.StatusOK {
			t.Fatalf("error report: status %d", code)
		}
		if ans := awaitAnswer(t, ch, "requeue"); ans.code != http.StatusOK || ans.lease.Task != held.Task || ans.lease.Epoch != held.Epoch+1 {
			t.Fatalf("after the requeue: %+v, want task %d at epoch %d", ans, held.Task, held.Epoch+1)
		}
	})

	t.Run("204-at-wait_ms", func(t *testing.T) {
		c, srv := testCluster(t, store, Config{})
		ans := awaitAnswer(t, parkLease(t, context.Background(), c, srv, store, "w1", 60*time.Millisecond), "wait_ms")
		if ans.code != http.StatusNoContent || ans.took < 60*time.Millisecond {
			t.Fatalf("idle long-poll: %+v, want 204 no sooner than wait_ms", ans)
		}
		// No wait_ms is the immediate answer it always was.
		t0 := time.Now()
		if lease := leaseAs(t, srv, store, "w1"); lease != nil || time.Since(t0) > 5*time.Second {
			t.Fatalf("plain lease request: lease=%v after %v", lease, time.Since(t0))
		}
	})

	t.Run("released-by-Close-and-disconnect", func(t *testing.T) {
		before := runtime.NumGoroutine()
		c, srv := testCluster(t, store, Config{})
		closed := parkLease(t, context.Background(), c, srv, store, "w1", long)
		c.Close()
		if ans := awaitAnswer(t, closed, "Close"); ans.code != http.StatusNoContent {
			t.Fatalf("parked request at Close: %+v, want 204", ans)
		}
		// A closed coordinator no longer parks anyone.
		if ans := awaitAnswer(t, parkLease(t, context.Background(), c, srv, store, "w1", long), "after Close"); ans.code != http.StatusNoContent {
			t.Fatalf("lease request after Close: %+v, want an immediate 204", ans)
		}

		c2, srv2 := testCluster(t, store, Config{})
		ctx, hangUp := context.WithCancel(context.Background())
		gone := parkLease(t, ctx, c2, srv2, store, "w2", long)
		hangUp()
		if ans := awaitAnswer(t, gone, "disconnect"); ans.code != -1 {
			t.Fatalf("cancelled request: %+v, want a client-side error", ans)
		}
		// httptest's Close waits for outstanding handlers: it returns only
		// because the parked one noticed its client was gone.
		srv2.Close()
		srv.Close()
		http.DefaultClient.CloseIdleConnections()
		waitFor(t, 5*time.Second, "a parked lease request left a goroutine behind", func() bool {
			return runtime.NumGoroutine() <= before
		})
	})
}

// connCounter counts the connections a worker's round trips dialled, and the
// requests per path.
type connCounter struct {
	next   http.RoundTripper
	dials  atomic.Int64
	leases atomic.Int64
	posts  atomic.Int64
}

func (cc *connCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	cc.posts.Add(1)
	if req.URL.Path == "/cluster/lease" {
		cc.leases.Add(1)
	}
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if !info.Reused {
			cc.dials.Add(1)
		}
	}}
	return cc.next.RoundTrip(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
}

// TestWorkerOneConnectionOnePlanPerJob: a worker mining a whole 8-part job
// asks for a lease once, takes the other seven off its report acks, and does
// it all on one TCP connection — every response body, read or not, is
// drained so the connection goes back to the pool.
func TestWorkerOneConnectionOnePlanPerJob(t *testing.T) {
	store, pat, want := starWorkload(t)
	c, srv := testCluster(t, store, Config{LeaseTTL: time.Minute, Parts: 8})
	if _, err := c.StartJob("j", JobSpec{Pattern: pat}); err != nil {
		t.Fatal(err)
	}
	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	cc := &connCounter{next: tp}
	w, err := NewWorker(WorkerConfig{
		Coordinator: srv.URL, Name: "w1", Store: store,
		Client: &http.Client{Transport: cc},
		Poll:   5 * time.Millisecond,
		Engine: engine.Options{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	waitFor(t, 30*time.Second, "job never completed", func() bool {
		st, _ := c.JobStatusByID("j")
		return st.State == "done"
	})
	// The worker is parked on its next lease request by now, or about to be.
	waitFor(t, 5*time.Second, "worker never went back to asking", func() bool { return cc.leases.Load() == 2 })
	if dials, posts := cc.dials.Load(), cc.posts.Load(); dials != 1 || posts != 10 {
		t.Errorf("%d connections for %d round trips, want 1 for 10 (2 lease requests, 8 reports)", dials, posts)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run: %v", err)
	}
	st, _ := c.JobStatusByID("j")
	if st.Ordered != want || w.Leases() != 8 || w.Completed() != 8 {
		t.Fatalf("ordered=%d leases=%d completed=%d, want %d/8/8", st.Ordered, w.Leases(), w.Completed(), want)
	}

	// One compiled plan served all eight leases; another pattern replaces it.
	lease := &Lease{Pattern: pat}
	plan, err := w.planFor(lease, w.cfg.Engine)
	if err != nil || plan != w.plan {
		t.Fatalf("planFor(job's pattern) = %p, %v; want the cached %p", plan, err, w.plan)
	}
	other, err := w.planFor(&Lease{Pattern: "0 1; 1 2; 0 2"}, w.cfg.Engine)
	if err != nil || other == plan {
		t.Fatalf("planFor(another pattern) = %p, %v; want a fresh plan", other, err)
	}
}

// TestDrainedWorkerHandsBackWithoutAsking: a worker whose context is
// cancelled reports what it holds — here a lease it had not started, so the
// whole range is the remainder — and does not ask for more.
func TestDrainedWorkerHandsBackWithoutAsking(t *testing.T) {
	t.Run("split=0", func(t *testing.T) {
		store, pat, want := starWorkload(t)
		c, srv := testCluster(t, store, Config{LeaseTTL: 10 * time.Second, Parts: 2, now: newFakeClock().Now})
		if _, err := c.StartJob("j", JobSpec{Pattern: pat}); err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(WorkerConfig{
			Coordinator: srv.URL, Name: "w1", Store: store,
			Engine: engine.Options{Workers: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		lease := leaseAs(t, srv, store, "w1")
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if next := w.runLease(ctx, lease); next != nil {
			t.Fatalf("a draining worker was handed lease %+v", next)
		}
		st, _ := c.JobStatusByID("j")
		if w.Partial() != 1 || st.Spilled != 1 || st.Leased != 0 || st.Pending != 2 || c.Status().Leases != 1 {
			t.Fatalf("after the drain: partial=%d %+v, want the range spilled back and nothing leased", w.Partial(), st)
		}
		drainJob(t, srv, store, "w2")
		st, _ = c.JobStatusByID("j")
		if st.State != "done" || st.Ordered != want {
			t.Fatalf("%+v, want done/%d", st, want)
		}
	})
}
