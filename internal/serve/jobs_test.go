package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ohminer"
	"ohminer/internal/cluster"
	"ohminer/internal/engine"
)

// jobsFixture: a 60-edge star (edges[i] = {0, i+1}) where "0 1; 0 2" has
// exactly 60×59 = 3540 ordered embeddings — big enough to span several
// leases when throttled, small enough to finish fast unthrottled. The same
// construction backs the engine's and the cluster's chaos tests.
const starWant = 60 * 59

func starSession(t *testing.T) *ohminer.Session {
	t.Helper()
	edges := make([][]uint32, 60)
	for i := range edges {
		edges[i] = []uint32{0, uint32(i) + 1}
	}
	h, err := ohminer.BuildHypergraph(61, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ohminer.NewSession(ohminer.NewStore(h))
}

// jobsEnv is ohmserve -checkpoint-dir in miniature: a durable coordinator on
// dir, a Server mounting it on an httptest server, and one cluster.Worker
// ("local") leasing from that server.
type jobsEnv struct {
	coord *cluster.Coordinator
	ts    *httptest.Server
	url   string
	tp    *http.Transport // the worker's connections
	stop  context.CancelFunc
	done  chan struct{} // closed when the worker's Run returns
}

// startJobs opens the coordinator on dir (replaying whatever an earlier env
// left there) and starts the worker; onEmbedding, when set, throttles it.
func startJobs(t *testing.T, sess *ohminer.Session, dir string, onEmbedding func([]uint32)) *jobsEnv {
	t.Helper()
	coord, err := cluster.New(sess.Store(), cluster.Config{Dir: dir, Parts: 8})
	if err != nil {
		t.Fatal(err)
	}
	e := &jobsEnv{coord: coord, tp: &http.Transport{}, done: make(chan struct{})}
	e.ts = httptest.NewServer(New(sess, Config{Cluster: coord}).Handler())
	e.url = e.ts.URL
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: e.url,
		Name:        "local",
		Store:       sess.Store(),
		Client:      &http.Client{Transport: e.tp},
		Poll:        10 * time.Millisecond,
		Engine:      engine.Options{Workers: 1},
		OnEmbedding: onEmbedding,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ctx context.Context
	ctx, e.stop = context.WithCancel(context.Background())
	go func() {
		defer close(e.done)
		w.Run(ctx) // returns ctx's error once stopped
	}()
	t.Cleanup(func() { e.drain(t) })
	return e
}

// waitWorker cancels the worker and waits for its Run to return.
func (e *jobsEnv) waitWorker(t *testing.T) {
	t.Helper()
	e.stop()
	select {
	case <-e.done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker Run did not return after cancel")
	}
	e.tp.CloseIdleConnections()
}

// drain shuts down in ohmserve's order: the worker first (its in-flight
// lease reports its remainder over the still-open listener), then the
// server, then the coordinator. Idempotent.
func (e *jobsEnv) drain(t *testing.T) {
	t.Helper()
	e.waitWorker(t)
	e.ts.Close()
	e.coord.Close()
}

// crash drops the coordinator under a worker that still holds a lease, as a
// SIGKILL would: the WAL closes first, so nothing the worker reports after
// this point is merged.
func (e *jobsEnv) crash(t *testing.T) {
	t.Helper()
	e.coord.Close()
	e.ts.Close()
	e.waitWorker(t)
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data := make([]byte, 0, 512)
	buf := make([]byte, 512)
	for {
		n, err := resp.Body.Read(buf)
		data = append(data, buf[:n]...)
		if err != nil {
			return resp, data
		}
	}
}

func getStatus(t *testing.T, url, id string) (int, cluster.JobStatus) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cluster.JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// waitJob polls GET /jobs/{id} until ok holds for the status, failing the
// test if the job fails — or, unless ok accepts it, finishes — first.
func waitJob(t *testing.T, url, id, what string, ok func(cluster.JobStatus) bool) cluster.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, st := getStatus(t, url, id)
		if code == http.StatusOK && ok(st) {
			return st
		}
		if code == http.StatusOK && st.State != "running" {
			t.Fatalf("job %s reached %q (err %q) while waiting for %s", id, st.State, st.Error, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s: never %s", id, what)
	return cluster.JobStatus{}
}

func isDone(st cluster.JobStatus) bool { return st.State == "done" }

// TestQueryTrailingGarbage: a body holding a second JSON value after the
// request object is a 400, not a silently half-read query.
func TestQueryTrailingGarbage(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"pattern": "0 1; 1 2"}{"pattern": "0 1"}`,
		`{"pattern": "0 1; 1 2"} trailing`,
	} {
		resp, out := postQuery(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("trailing garbage %q: status %d want 400 (%s)", body, resp.StatusCode, out)
		}
		if !strings.Contains(string(out), "trailing") {
			t.Errorf("trailing garbage %q: error %q does not name the cause", body, out)
		}
	}
}

// TestJobsDisabled: without a cluster coordinator the jobs endpoints refuse
// with 503 and say why.
func TestJobsDisabled(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/jobs", `{"pattern": "0 1; 1 2"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /jobs: status %d want 503 (%s)", resp.StatusCode, body)
	}
	if code, _ := getStatus(t, ts.URL, "x"); code != http.StatusServiceUnavailable {
		t.Errorf("GET /jobs/x: status %d want 503", code)
	}
}

func TestJobLifecycle(t *testing.T) {
	e := startJobs(t, starSession(t), t.TempDir(), nil)

	resp, body := postJSON(t, e.url+"/jobs", `{"id": "t1", "pattern": "0 1; 0 2"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d (%s)", resp.StatusCode, body)
	}
	st := waitJob(t, e.url, "t1", "done", isDone)
	if st.Ordered != starWant || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("done status %+v, want ordered=%d and no open task", st, starWant)
	}

	if resp, body = postJSON(t, e.url+"/jobs", `{"id": "t1", "pattern": "0 1; 0 2"}`); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate id: status %d want 409 (%s)", resp.StatusCode, body)
	}
	if resp, body = postJSON(t, e.url+"/jobs", `{"id": "a.b", "pattern": "0 1; 0 2"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id: status %d want 400 (%s)", resp.StatusCode, body)
	}
	if code, _ := getStatus(t, e.url, "nope"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d want 404", code)
	}
	// Resuming a finished job answers its status: done.
	resp, body = postJSON(t, e.url+"/jobs/t1/resume", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"done"`) {
		t.Errorf("resume of done job: status %d body %s, want 200 done", resp.StatusCode, body)
	}
	if jobs := e.coord.Status().Jobs; len(jobs) != 1 || jobs[0].ID != "t1" {
		t.Errorf("GET /cluster lists %+v, want the one job t1", jobs)
	}
}

// TestJobInterruptResumeAcrossRestart is the headline robustness scenario:
// a throttled job is mining when its server goes away twice — once drained
// (the worker hands its lease back first), once crashed (the coordinator
// dies under a held lease) — and each new server on the same directory
// carries on without a resume call. The final count is exact: no lost and
// no double-counted embeddings.
func TestJobInterruptResumeAcrossRestart(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	sess := starSession(t)
	// The throttle stretches the job over about a second: long enough that
	// both restarts land while it runs, whatever else the machine is doing.
	throttle := func([]uint32) { time.Sleep(300 * time.Microsecond) }
	running := func(what string, ok func(cluster.JobStatus) bool) func(cluster.JobStatus) bool {
		return func(st cluster.JobStatus) bool {
			if st.State == "done" {
				t.Fatalf("job completed before %s (%+v); the throttle is too light for this machine", what, st)
			}
			return st.State == "running" && ok(st)
		}
	}

	e1 := startJobs(t, sess, dir, throttle)
	resp, body := postJSON(t, e1.url+"/jobs", `{"id": "big", "pattern": "0 1; 0 2"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d (%s)", resp.StatusCode, body)
	}
	waitJob(t, e1.url, "big", "one part merged", running("the drain", func(st cluster.JobStatus) bool { return st.Done >= 1 }))
	e1.drain(t)

	e2 := startJobs(t, sess, dir, throttle)
	if st := e2.coord.Status(); st.ReplayedJobs != 1 || st.ResurrectedLeases != 0 {
		t.Fatalf("restart after a drain: replayed %d jobs, resurrected %d leases; want 1 and 0 (the drained lease came back as a remainder)",
			st.ReplayedJobs, st.ResurrectedLeases)
	}
	waitJob(t, e2.url, "big", "leased again", running("the crash", func(st cluster.JobStatus) bool { return st.Leased >= 1 }))
	e2.crash(t)

	e3 := startJobs(t, sess, dir, throttle)
	if st := e3.coord.Status(); st.ReplayedJobs != 1 || st.ResurrectedLeases < 1 {
		t.Fatalf("restart after a crash: replayed %d jobs, resurrected %d leases; want 1 and at least 1",
			st.ReplayedJobs, st.ResurrectedLeases)
	}
	final := waitJob(t, e3.url, "big", "done", isDone)
	if final.Ordered != starWant {
		t.Fatalf("resumed result %+v, want exactly ordered=%d", final, starWant)
	}
	e3.drain(t)

	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after the final shutdown, %d before the test", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// writeLegacy writes files of the file-per-job layout into dir.
func writeLegacy(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// legacyRefused checks that CheckJobDir refuses dir with ErrLegacyJobDir and
// names every one of files.
func legacyRefused(t *testing.T, dir string, files ...string) {
	t.Helper()
	err := CheckJobDir(dir)
	if !errors.Is(err, ErrLegacyJobDir) {
		t.Fatalf("CheckJobDir: %v, want ErrLegacyJobDir", err)
	}
	for _, f := range files {
		if !strings.Contains(err.Error(), filepath.Join(dir, f)) {
			t.Errorf("refusal %q does not name %s", err, f)
		}
	}
	if !strings.Contains(err.Error(), "move the files away") {
		t.Errorf("refusal %q does not say what to do", err)
	}
}

// TestJobResumeCorruptSnapshotRejected: a directory left by the file-per-job
// layout — here a spec and a damaged snapshot — is refused with a typed
// error naming both files, never adopted or silently restarted.
func TestJobResumeCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	writeLegacy(t, dir, map[string]string{
		"hurt.job":  `{"pattern": "0 1; 0 2"}`,
		"hurt.ckpt": "not a snapshot at all",
	})
	legacyRefused(t, dir, "hurt.job", "hurt.ckpt")
}

// TestJobResumeWithoutSnapshot: a legacy job that died before its first
// snapshot — a spec alone — is refused the same way; a directory without
// legacy files passes.
func TestJobResumeWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := CheckJobDir(dir); err != nil {
		t.Fatalf("CheckJobDir on an empty dir: %v", err)
	}
	writeLegacy(t, dir, map[string]string{"early.job": `{"pattern": "0 1; 0 2"}`, "notes.txt": "x"})
	legacyRefused(t, dir, "early.job")
}

// TestVariantRefused: "variant" is still a recognised key of POST /query and
// POST /jobs, but only to be checked. The production configuration's own
// name passes; a baseline's is a 422 naming where baselines run — not a 400
// for an unknown field, and not a silent run of something else.
func TestVariantRefused(t *testing.T) {
	e := startJobs(t, starSession(t), t.TempDir(), nil)
	refusal := func(msg string) bool {
		return strings.Contains(msg, "HGMatch") && strings.Contains(msg, "ohmbench") && strings.Contains(msg, "ohminer -variant")
	}
	for _, path := range []string{"/query", "/jobs"} {
		resp, body := postJSON(t, e.url+path, `{"pattern": "0 1; 0 2", "variant": "OHMiner"}`)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			t.Errorf("POST %s variant=OHMiner: status %d (%s)", path, resp.StatusCode, body)
		}
		resp, body = postJSON(t, e.url+path, `{"pattern": "0 1; 0 2", "variant": "HGMatch"}`)
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || resp.StatusCode != http.StatusUnprocessableEntity || !refusal(er.Error) {
			t.Errorf("POST %s variant=HGMatch: status %d body %s, want a 422 saying where baselines run", path, resp.StatusCode, body)
		}
	}
}
