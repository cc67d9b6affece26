package cluster

// Protocol-level tests of the coordinator's lease machine: expiry-driven
// reassignment, epoch fencing of late zombie reports, in-place lease
// resurrection, remainder spills, and exactly-once merging — each verified
// by mining real lease payloads through the engine, so the wire format and
// the counts are tested together, not as mocks.
//
// Several tests here and in the chaos/lease/WAL files wrap their body in a
// subtest named split=0: they ran once per engine scheduler while
// SplitDepth=-1 selected a second one, and keep the surviving case under the
// ID it has in test history.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ohminer/internal/bruteforce"
	"ohminer/internal/checkpoint"
	"ohminer/internal/dal"
	"ohminer/internal/durable"
	"ohminer/internal/engine"
	"ohminer/internal/hypergraph"
	"ohminer/internal/pattern"
)

// starWorkload mirrors the engine chaos workload: a 60-edge star whose
// 2-edge shared-vertex pattern has 60*59 = 3540 ordered embeddings.
func starWorkload(t *testing.T) (*dal.Store, string, uint64) {
	t.Helper()
	const n = 60
	edges := make([][]uint32, n)
	for i := range edges {
		edges[i] = []uint32{0, uint32(i + 1)}
	}
	h := hypergraph.MustBuild(n+1, edges, nil)
	p := pattern.MustNew([][]uint32{{0, 1}, {0, 2}}, nil)
	if want := bruteforce.Count(h, p); want != n*(n-1) {
		t.Fatalf("star workload: brute force %d, want %d", want, n*(n-1))
	}
	return dal.Build(h), "0 1; 0 2", n * (n - 1)
}

// fakeClock is the deterministic time source for lease-expiry tests: tests
// advance it instead of sleeping, so TTL scenarios run in microseconds and
// never flake under load.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// testCluster wires a coordinator onto an httptest server so tests exercise
// the real HTTP surface (routing, strict decoding, status codes).
func testCluster(t *testing.T, store *dal.Store, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := New(store, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mux := http.NewServeMux()
	c.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { c.Close() })
	return c, srv
}

// postJSON posts body to the server and decodes a JSON response, returning
// the status code.
func postJSON(t *testing.T, srv *httptest.Server, path string, body, out any) int {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal %s body: %v", path, err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

// leaseAs requests a lease for the named worker; nil means 204 (no work).
func leaseAs(t *testing.T, srv *httptest.Server, store *dal.Store, worker string) *Lease {
	t.Helper()
	var lease Lease
	code := postJSON(t, srv, "/cluster/lease",
		LeaseRequest{Worker: worker, GraphFP: store.Hypergraph().Fingerprint()}, &lease)
	switch code {
	case http.StatusOK:
		return &lease
	case http.StatusNoContent:
		return nil
	default:
		t.Fatalf("lease for %q: status %d", worker, code)
		return nil
	}
}

// mineLease runs a lease payload through the local engine exactly as a
// worker would and returns the completed-task report.
func mineLease(t *testing.T, store *dal.Store, lease *Lease) Report {
	t.Helper()
	snap, err := checkpoint.Decode(bytes.NewReader(lease.Snapshot))
	if err != nil {
		t.Fatalf("decode lease snapshot: %v", err)
	}
	p, err := pattern.Parse(lease.Pattern)
	if err != nil {
		t.Fatalf("parse lease pattern: %v", err)
	}
	opts := engine.Options{Workers: 2}
	plan, err := engine.CompilePlan(store, p, opts)
	if err != nil {
		t.Fatalf("compile lease plan: %v", err)
	}
	res, err := engine.ResumeWithPlanContext(context.Background(), store, plan, snap, opts)
	if err != nil {
		t.Fatalf("mine lease: %v", err)
	}
	return Report{
		Job: lease.Job, Task: lease.Task, Epoch: lease.Epoch,
		Ordered: res.Ordered, Stats: engine.PackStats(res.Stats),
	}
}

// drainJob leases and mines every remaining task as the named worker,
// reporting each; it stops when the coordinator has no more work.
func drainJob(t *testing.T, srv *httptest.Server, store *dal.Store, worker string) {
	t.Helper()
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("drainJob: job never completed")
		}
		lease := leaseAs(t, srv, store, worker)
		if lease == nil {
			return
		}
		rep := mineLease(t, store, lease)
		rep.Worker = worker
		if code := postJSON(t, srv, "/cluster/report", rep, nil); code != http.StatusOK {
			t.Fatalf("report task %d: status %d", rep.Task, code)
		}
	}
}

// TestLeaseExpiryReassignsAndFencesZombie is the core fault-tolerance
// contract: a worker that stops heartbeating loses
// its lease to reassignment (epoch bump), a second worker redoes the task,
// and the first worker's late report — the zombie — is refused with 410, so
// the final count is exact despite the task having been mined twice.
func TestLeaseExpiryReassignsAndFencesZombie(t *testing.T) {
	t.Run("split=0", func(t *testing.T) {
		store, pat, want := starWorkload(t)
		clk := newFakeClock()
		c, srv := testCluster(t, store, Config{
			LeaseTTL: 10 * time.Second, Parts: 4, now: clk.Now,
		})
		if _, err := c.StartJob("j", JobSpec{Pattern: pat}); err != nil {
			t.Fatalf("start job: %v", err)
		}

		// zombie takes a lease, mines it… and never heartbeats.
		zombieLease := leaseAs(t, srv, store, "zombie")
		if zombieLease == nil {
			t.Fatal("no lease granted")
		}
		zombieRep := mineLease(t, store, zombieLease)
		zombieRep.Worker = "zombie"

		// The TTL passes; the next lease request sweeps and re-grants the
		// same task at a higher epoch.
		clk.Advance(11 * time.Second)
		healthy := leaseAs(t, srv, store, "healthy")
		if healthy == nil {
			t.Fatal("expired task was not re-granted")
		}
		if healthy.Task != zombieLease.Task {
			t.Fatalf("re-grant handed task %d, want the expired task %d", healthy.Task, zombieLease.Task)
		}
		if healthy.Epoch <= zombieLease.Epoch {
			t.Fatalf("re-grant epoch %d not after original %d", healthy.Epoch, zombieLease.Epoch)
		}

		// The zombie's late report must be fenced out…
		if code := postJSON(t, srv, "/cluster/report", zombieRep, nil); code != http.StatusGone {
			t.Fatalf("zombie report: status %d, want %d", code, http.StatusGone)
		}
		// …and its heartbeat too.
		code := postJSON(t, srv, "/cluster/heartbeat", HeartbeatRequest{
			Worker: "zombie", Job: zombieLease.Job, Task: zombieLease.Task, Epoch: zombieLease.Epoch,
		}, nil)
		if code != http.StatusGone {
			t.Fatalf("zombie heartbeat: status %d, want %d", code, http.StatusGone)
		}

		// The healthy worker finishes the re-granted task and the rest.
		rep := mineLease(t, store, healthy)
		rep.Worker = "healthy"
		if code := postJSON(t, srv, "/cluster/report", rep, nil); code != http.StatusOK {
			t.Fatalf("healthy report: status %d", code)
		}
		drainJob(t, srv, store, "healthy")

		st, ok := c.JobStatusByID("j")
		if !ok || st.State != "done" {
			t.Fatalf("job state %q, want done", st.State)
		}
		if st.Ordered != want {
			t.Errorf("ordered = %d, want %d (exactly-once violated)", st.Ordered, want)
		}
		if st.Reassigned == 0 {
			t.Error("no reassignment recorded")
		}
		if st.Fenced == 0 {
			t.Error("no fenced report recorded")
		}
	})
}

// TestExpiredButUnclaimedReportSalvaged: a report that arrives after the TTL
// but before anyone re-claimed the task still matches the epoch, so the work
// is salvaged instead of redone.
func TestExpiredButUnclaimedReportSalvaged(t *testing.T) {
	store, pat, want := starWorkload(t)
	clk := newFakeClock()
	c, srv := testCluster(t, store, Config{LeaseTTL: 10 * time.Second, Parts: 2, now: clk.Now})
	if _, err := c.StartJob("j", JobSpec{Pattern: pat}); err != nil {
		t.Fatalf("start job: %v", err)
	}
	lease := leaseAs(t, srv, store, "slow")
	if lease == nil {
		t.Fatal("no lease granted")
	}
	rep := mineLease(t, store, lease)
	rep.Worker = "slow"
	clk.Advance(11 * time.Second)
	// Trigger the sweep via a status read — the task goes back to pending —
	// then report anyway: epoch still matches, work is accepted.
	c.Status()
	if code := postJSON(t, srv, "/cluster/report", rep, nil); code != http.StatusOK {
		t.Fatalf("salvage report: status %d, want 200", code)
	}
	drainJob(t, srv, store, "slow")
	st, _ := c.JobStatusByID("j")
	if st.State != "done" || st.Ordered != want {
		t.Fatalf("state=%q ordered=%d, want done/%d", st.State, st.Ordered, want)
	}
}

// TestHeartbeatResurrectsExpiredLease: a slow-but-alive worker whose lease
// expired unclaimed gets it back on its next heartbeat (same epoch), and the
// task is NOT handed to anyone else afterwards.
func TestHeartbeatResurrectsExpiredLease(t *testing.T) {
	store, pat, want := starWorkload(t)
	clk := newFakeClock()
	c, srv := testCluster(t, store, Config{LeaseTTL: 10 * time.Second, Parts: 1, now: clk.Now})
	if _, err := c.StartJob("j", JobSpec{Pattern: pat}); err != nil {
		t.Fatalf("start job: %v", err)
	}
	lease := leaseAs(t, srv, store, "slow")
	if lease == nil {
		t.Fatal("no lease granted")
	}
	clk.Advance(11 * time.Second)
	c.Status() // sweep: the lease expires to pending
	code := postJSON(t, srv, "/cluster/heartbeat", HeartbeatRequest{
		Worker: "slow", Job: lease.Job, Task: lease.Task, Epoch: lease.Epoch,
	}, nil)
	if code != http.StatusOK {
		t.Fatalf("resurrecting heartbeat: status %d, want 200", code)
	}
	if other := leaseAs(t, srv, store, "other"); other != nil {
		t.Fatalf("resurrected task %d was also granted to another worker", other.Task)
	}
	rep := mineLease(t, store, lease)
	rep.Worker = "slow"
	if code := postJSON(t, srv, "/cluster/report", rep, nil); code != http.StatusOK {
		t.Fatalf("report after resurrection: status %d", code)
	}
	st, _ := c.JobStatusByID("j")
	if st.State != "done" || st.Ordered != want {
		t.Fatalf("state=%q ordered=%d, want done/%d", st.State, st.Ordered, want)
	}
}

// TestRemainderSpill: a worker cut short mid-task reports its partial count
// plus the unfinished frontier; the coordinator re-enqueues the remainder
// and a second pass finishes it — total exact.
func TestRemainderSpill(t *testing.T) {
	t.Run("split=0", func(t *testing.T) {
		store, pat, want := starWorkload(t)
		c, srv := testCluster(t, store, Config{Parts: 1})
		if _, err := c.StartJob("j", JobSpec{Pattern: pat}); err != nil {
			t.Fatalf("start job: %v", err)
		}
		lease := leaseAs(t, srv, store, "quitter")
		if lease == nil {
			t.Fatal("no lease granted")
		}
		snap, err := checkpoint.Decode(bytes.NewReader(lease.Snapshot))
		if err != nil {
			t.Fatalf("decode lease snapshot: %v", err)
		}
		p, err := pattern.Parse(lease.Pattern)
		if err != nil {
			t.Fatalf("parse lease pattern: %v", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		mem := &durable.MemSink[*checkpoint.Snapshot]{}
		var seen int
		opts := engine.Options{
			Workers:    1,
			Checkpoint: mem,
			OnEmbedding: func([]uint32) {
				// Throttle (busy-wait: sleep granularity would distort
				// it) so the cancellation lands while work remains.
				end := time.Now().Add(20 * time.Microsecond)
				for time.Now().Before(end) {
				}
				seen++
				if seen == 100 {
					cancel() // graceful shutdown partway through the task
				}
			},
		}
		plan, err := engine.CompilePlan(store, p, opts)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		res, err := engine.ResumeWithPlanContext(ctx, store, plan, snap, opts)
		if err == nil || res.Ordered >= want {
			t.Fatalf("cancellation missed (err=%v, ordered=%d)", err, res.Ordered)
		}
		if !res.Truncated || mem.Bytes() == nil {
			t.Fatalf("no remainder snapshot (truncated=%v)", res.Truncated)
		}
		rep := Report{
			Worker: "quitter", Job: lease.Job, Task: lease.Task, Epoch: lease.Epoch,
			Ordered: res.Ordered, Stats: engine.PackStats(res.Stats),
			Remainder: mem.Bytes(),
		}
		if code := postJSON(t, srv, "/cluster/report", rep, nil); code != http.StatusOK {
			t.Fatalf("partial report: status %d", code)
		}
		st, _ := c.JobStatusByID("j")
		if st.State != "running" || st.Spilled == 0 {
			t.Fatalf("after spill: state=%q spilled=%d, want running with a spill", st.State, st.Spilled)
		}
		drainJob(t, srv, store, "finisher")
		st, _ = c.JobStatusByID("j")
		if st.State != "done" {
			t.Fatalf("job state %q, want done", st.State)
		}
		if st.Ordered != want {
			t.Errorf("ordered = %d, want %d (spill lost or double-counted work)", st.Ordered, want)
		}
	})
}

// TestThreeWorkersExactCount runs three real Worker loops against the HTTP
// surface and requires the distributed total to equal the single-node one.
func TestThreeWorkersExactCount(t *testing.T) {
	t.Run("split=0", func(t *testing.T) {
		store, pat, want := starWorkload(t)
		c, srv := testCluster(t, store, Config{LeaseTTL: 5 * time.Second, Parts: 8})
		if _, err := c.StartJob("j", JobSpec{Pattern: pat}); err != nil {
			t.Fatalf("start job: %v", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			w, err := NewWorker(WorkerConfig{
				Coordinator: srv.URL,
				Name:        fmt.Sprintf("w%d", i),
				Store:       store,
				Poll:        5 * time.Millisecond,
				Engine:      engine.Options{Workers: 2},
			})
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
			wg.Add(1)
			go func() { defer wg.Done(); _ = w.Run(ctx) }()
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			st, _ := c.JobStatusByID("j")
			if st.State == "done" {
				if st.Ordered != want {
					t.Errorf("ordered = %d, want %d", st.Ordered, want)
				}
				if auto := uint64(st.Automorphisms); st.Unique != want/auto {
					t.Errorf("unique = %d, want %d", st.Unique, want/auto)
				}
				break
			}
			if st.State == "failed" {
				t.Fatalf("job failed: %s", st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job never completed: %+v", st)
			}
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
		wg.Wait()
	})
}

// TestGraphFingerprintMismatch: a worker holding a different dataset is
// refused up front with 409.
func TestGraphFingerprintMismatch(t *testing.T) {
	store, pat, _ := starWorkload(t)
	c, srv := testCluster(t, store, Config{})
	if _, err := c.StartJob("j", JobSpec{Pattern: pat}); err != nil {
		t.Fatalf("start job: %v", err)
	}
	var er errorResponse
	code := postJSON(t, srv, "/cluster/lease", LeaseRequest{Worker: "alien", GraphFP: 0xdead}, nil)
	if code != http.StatusConflict {
		t.Fatalf("mismatched lease: status %d, want %d (%s)", code, http.StatusConflict, er.Error)
	}
}

// TestJobDataAwareOrderRefused: "data_aware_order" named a matching-order
// option that no longer exists, so a job body carrying it is refused with a
// 400 under DisallowUnknownFields, whatever its value; the same body without
// it is admitted, and its leases carry the plan engine.CompilePlan compiles —
// the one every worker on this store compiles too.
func TestJobDataAwareOrderRefused(t *testing.T) {
	store, pat, _ := starWorkload(t)
	_, srv := testCluster(t, store, Config{Parts: 2})
	for extra, want := range map[string]int{
		`, "data_aware_order": true`:  http.StatusBadRequest,
		`, "data_aware_order": false`: http.StatusBadRequest,
		``:                            http.StatusAccepted,
	} {
		body := fmt.Sprintf(`{"id": "d", "pattern": %q%s}`, pat, extra)
		resp, err := http.Post(srv.URL+"/cluster/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", body, resp.StatusCode, want)
		}
	}
	var lease Lease
	if code := postJSON(t, srv, "/cluster/lease", LeaseRequest{Worker: "w", GraphFP: store.Hypergraph().Fingerprint()}, &lease); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	snap, err := checkpoint.Decode(bytes.NewReader(lease.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pattern.Parse(pat)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.CompilePlan(store, p, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.PlanFP != engine.PlanFingerprint(plan) {
		t.Fatalf("lease plan %#x; CompilePlan gives %#x", snap.PlanFP, engine.PlanFingerprint(plan))
	}
}

// TestJobLifecycleHTTP covers the job-management surface: create, duplicate
// id, bad pattern, unknown id, and the status endpoints.
func TestJobLifecycleHTTP(t *testing.T) {
	store, pat, _ := starWorkload(t)
	_, srv := testCluster(t, store, Config{Parts: 4})

	var st JobStatus
	if code := postJSON(t, srv, "/cluster/jobs", jobCreateRequest{ID: "a", JobSpec: JobSpec{Pattern: pat}}, &st); code != http.StatusAccepted {
		t.Fatalf("create: status %d", code)
	}
	if st.Parts != 4 || st.Pending != 4 || st.State != "running" {
		t.Fatalf("fresh job status: %+v", st)
	}
	if code := postJSON(t, srv, "/cluster/jobs", jobCreateRequest{ID: "a", JobSpec: JobSpec{Pattern: pat}}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate id: status %d, want 409", code)
	}
	if code := postJSON(t, srv, "/cluster/jobs", jobCreateRequest{ID: "b", JobSpec: JobSpec{Pattern: "not a pattern"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad pattern: status %d, want 400", code)
	}
	if code := postJSON(t, srv, "/cluster/jobs", jobCreateRequest{ID: "sl/ash", JobSpec: JobSpec{Pattern: pat}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad id: status %d, want 400", code)
	}

	resp, err := http.Get(srv.URL + "/cluster/jobs/a")
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	var withTasks JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&withTasks); err != nil {
		t.Fatalf("decode job status: %v", err)
	}
	resp.Body.Close()
	if len(withTasks.Tasks) != 4 {
		t.Fatalf("job status lists %d tasks, want 4", len(withTasks.Tasks))
	}
	if resp, err = http.Get(srv.URL + "/cluster/jobs/nope"); err != nil {
		t.Fatalf("GET missing job: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("missing job: status %d, want 404", resp.StatusCode)
		}
	}

	resp, err = http.Get(srv.URL + "/cluster")
	if err != nil {
		t.Fatalf("GET /cluster: %v", err)
	}
	var cs ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatalf("decode cluster status: %v", err)
	}
	resp.Body.Close()
	if len(cs.Jobs) != 1 || cs.Jobs[0].ID != "a" {
		t.Fatalf("cluster status jobs: %+v", cs.Jobs)
	}
	if cs.GraphFP != store.Hypergraph().Fingerprint() {
		t.Fatal("cluster status carries the wrong graph fingerprint")
	}
}

// TestJobsAlias: /jobs is the coordinator's own job surface under a second
// name. Both routes answer the same JobStatus for the same job,
// POST /jobs/{id}/resume answers the status (404 for an unknown id), and a
// "limit" field — which a job never had on this surface — is refused as an
// unknown field.
func TestJobsAlias(t *testing.T) {
	store, pat, want := starWorkload(t)
	_, srv := testCluster(t, store, Config{Parts: 2})
	if code := postJSON(t, srv, "/jobs", jobCreateRequest{ID: "alpha", JobSpec: JobSpec{Pattern: pat}}, nil); code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", code)
	}
	drainJob(t, srv, store, "w1")

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d err %v", path, resp.StatusCode, err)
		}
		return buf.Bytes()
	}
	viaJobs, viaCluster := get("/jobs/alpha"), get("/cluster/jobs/alpha")
	if !bytes.Equal(viaJobs, viaCluster) {
		t.Fatalf("GET /jobs/alpha and /cluster/jobs/alpha differ:\n%s\n%s", viaJobs, viaCluster)
	}
	var st JobStatus
	if err := json.Unmarshal(viaJobs, &st); err != nil || st.State != "done" || st.Ordered != want {
		t.Fatalf("job alpha: %+v (err %v), want done with ordered=%d", st, err, want)
	}

	var resumed JobStatus
	if code := postJSON(t, srv, "/jobs/alpha/resume", nil, &resumed); code != http.StatusOK || resumed.State != "done" || resumed.Ordered != want {
		t.Fatalf("resume of a done job: status %d %+v, want 200 done", code, resumed)
	}
	if code := postJSON(t, srv, "/jobs/nope/resume", nil, nil); code != http.StatusNotFound {
		t.Fatalf("resume of an unknown job: status %d, want 404", code)
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"pattern": "0 1; 0 2", "limit": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /jobs with a limit: status %d, want 400", resp.StatusCode)
	}
}

// TestRequestBodyCap: only a report, which may carry a remainder frontier,
// gets the large body cap; a job admission over 1 MiB is a 400 on both job
// routes.
func TestRequestBodyCap(t *testing.T) {
	store, _, _ := starWorkload(t)
	_, srv := testCluster(t, store, Config{})
	body := `{"pattern": "` + strings.Repeat("0 1; ", 2<<20/5) + `0 2"}`
	for _, path := range []string{"/jobs", "/cluster/jobs"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with a 2 MiB body: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestTaskFailureRequeueAndJobFail: an errored task is retried, and the job
// fails cleanly once one task exhausts MaxTaskFailures.
func TestTaskFailureRequeueAndJobFail(t *testing.T) {
	store, pat, _ := starWorkload(t)
	c, srv := testCluster(t, store, Config{Parts: 1, MaxTaskFailures: 2})
	if _, err := c.StartJob("j", JobSpec{Pattern: pat}); err != nil {
		t.Fatalf("start job: %v", err)
	}
	for attempt := 1; attempt <= 2; attempt++ {
		lease := leaseAs(t, srv, store, "broken")
		if lease == nil {
			t.Fatalf("attempt %d: no lease", attempt)
		}
		rep := Report{
			Worker: "broken", Job: lease.Job, Task: lease.Task, Epoch: lease.Epoch,
			Error: "injected failure",
		}
		if code := postJSON(t, srv, "/cluster/report", rep, nil); code != http.StatusOK {
			t.Fatalf("attempt %d: error report status %d", attempt, code)
		}
	}
	st, _ := c.JobStatusByID("j")
	if st.State != "failed" {
		t.Fatalf("job state %q, want failed", st.State)
	}
	if !strings.Contains(st.Error, "injected failure") {
		t.Fatalf("job error %q does not carry the task failure", st.Error)
	}
}

// TestPartitionCoversCandidates: the initial partition covers the first
// hyperedge's candidate space exactly — no range lost, none duplicated.
func TestPartitionCoversCandidates(t *testing.T) {
	store, pat, _ := starWorkload(t)
	p, err := pattern.Parse(pat)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := engine.CompilePlan(store, p, engine.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cands := engine.Frontier(store, plan, 1)[0].Cands
	for _, parts := range []int{1, 3, 16, len(cands), len(cands) + 7} {
		tasks := engine.Frontier(store, plan, parts)
		if len(tasks) > parts {
			t.Fatalf("parts=%d: %d tasks", parts, len(tasks))
		}
		var got []uint32
		for _, task := range tasks {
			if task.Depth != 0 || len(task.Prefix) != 0 {
				t.Fatalf("parts=%d: partition task not at depth 0: %+v", parts, task)
			}
			got = append(got, task.Cands...)
		}
		if len(got) != len(cands) {
			t.Fatalf("parts=%d: partition covers %d candidates, want %d", parts, len(got), len(cands))
		}
		for i := range got {
			if got[i] != cands[i] {
				t.Fatalf("parts=%d: candidate %d is %d, want %d", parts, i, got[i], cands[i])
			}
		}
	}
}
