package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ohminer"
)

// jobsFixture: a 60-edge star (edges[i] = {0, i+1}) where "0 1; 0 2" has
// exactly 60×59 = 3540 ordered embeddings — big enough to straddle several
// short checkpoint periods when throttled, small enough to finish fast
// unthrottled. The same construction backs the engine's chaos tests.
const starWant = 60 * 59

func jobsServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	edges := make([][]uint32, 60)
	for i := range edges {
		edges[i] = []uint32{0, uint32(i) + 1}
	}
	h, err := ohminer.BuildHypergraph(61, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(ohminer.NewSession(ohminer.NewStore(h)), cfg)
}

func timeoutCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
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

func getStatus(t *testing.T, url, id string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// waitState polls GET /jobs/{id} until the job reaches want (or fails the
// test after a few seconds).
func waitState(t *testing.T, url, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, st := getStatus(t, url, id)
		if code == http.StatusOK && st.State == want {
			return st
		}
		if code == http.StatusOK && (st.State == "failed" || (st.State == "done" && want != "done")) {
			t.Fatalf("job %s reached terminal state %q (err %q) while waiting for %q", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return JobStatus{}
}

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

// TestJobsDisabled: without a checkpoint directory the jobs endpoints
// refuse with 503 and say why.
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
	dir := t.TempDir()
	s := jobsServer(t, Config{CheckpointDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/jobs", `{"id": "t1", "pattern": "0 1; 0 2"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d (%s)", resp.StatusCode, body)
	}
	st := waitState(t, ts.URL, "t1", "done")
	if st.Result == nil || st.Result.Ordered != starWant || st.Result.Truncated {
		t.Fatalf("done status %+v, want ordered=%d untruncated", st, starWant)
	}

	// Durable layout: spec and result persisted, rolling snapshot removed.
	if _, err := os.Stat(filepath.Join(dir, "t1.job")); err != nil {
		t.Errorf("t1.job missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "t1.done")); err != nil {
		t.Errorf("t1.done missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "t1.ckpt")); !os.IsNotExist(err) {
		t.Errorf("t1.ckpt survived clean completion (err=%v)", err)
	}

	// Same id again: 409, both against memory and against the disk spec.
	if resp, body = postJSON(t, ts.URL+"/jobs", `{"id": "t1", "pattern": "0 1; 0 2"}`); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate id: status %d want 409 (%s)", resp.StatusCode, body)
	}
	// Hostile ids never reach the filesystem.
	if resp, body = postJSON(t, ts.URL+"/jobs", `{"id": "a.b", "pattern": "0 1; 0 2"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id: status %d want 400 (%s)", resp.StatusCode, body)
	}
	if code, _ := getStatus(t, ts.URL, "nope"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d want 404", code)
	}
	// Resuming a finished job is an idempotent no-op answering done.
	resp, body = postJSON(t, ts.URL+"/jobs/t1/resume", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"done"`) {
		t.Errorf("resume of done job: status %d body %s, want 200 done", resp.StatusCode, body)
	}
	if s.jobsStarted.Value() != 1 {
		t.Errorf("jobs metric %d want 1", s.jobsStarted.Value())
	}
}

// TestJobInterruptResumeAcrossRestart is the headline robustness scenario:
// a throttled job checkpoints, the server aborts (SIGTERM-style), a brand
// new Server over the same directory resumes the job from its snapshot, and
// the final count is exact — no lost and no double-counted embeddings.
func TestJobInterruptResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	// The throttle must stretch the job well past the 10ms checkpoint period
	// even when the suite starves this test for CPU (a single-core box runs
	// the busy-wait miners and the Stat poller on the same core): if the job
	// completes before the plug is pulled, clean completion removes the
	// snapshot and there is nothing left to interrupt.
	throttle := func([]uint32) {
		end := time.Now().Add(200 * time.Microsecond)
		for time.Now().Before(end) {
		}
	}
	s1 := jobsServer(t, Config{
		CheckpointDir:    dir,
		CheckpointEvery:  10 * time.Millisecond,
		Workers:          2,
		debugOnEmbedding: throttle,
	})
	ts1 := httptest.NewServer(s1.Handler())

	resp, body := postJSON(t, ts1.URL+"/jobs", `{"id": "big", "pattern": "0 1; 0 2"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d (%s)", resp.StatusCode, body)
	}
	// Wait for at least one durable snapshot, then pull the plug.
	ckpt := filepath.Join(dir, "big.ckpt")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if _, st := getStatus(t, ts1.URL, "big"); st.State == "done" {
			t.Fatalf("job completed before it could be interrupted (%+v); the throttle is too light for this machine", st)
		}
		if time.Now().After(deadline) {
			code, st := getStatus(t, ts1.URL, "big")
			t.Fatalf("no checkpoint appeared (job: %d %+v)", code, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s1.Abort()
	if err := s1.DrainJobs(timeoutCtx(t, 10*time.Second)); err != nil {
		t.Fatalf("drain after abort: %v", err)
	}
	st := waitState(t, ts1.URL, "big", "interrupted")
	if st.Error == "" {
		t.Errorf("interrupted status carries no explanation: %+v", st)
	}
	ts1.Close()

	// "Restart": a fresh Server (fresh session, same hypergraph bytes) over
	// the same checkpoint directory. Before resuming, the disk view alone
	// must already say interrupted-with-progress.
	s2 := jobsServer(t, Config{CheckpointDir: dir, CheckpointEvery: 10 * time.Millisecond, Workers: 2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, st2 := getStatus(t, ts2.URL, "big")
	if code != http.StatusOK || st2.State != "interrupted" || st2.CheckpointSeq == 0 {
		t.Fatalf("disk status after restart: %d %+v, want interrupted with a snapshot", code, st2)
	}

	resp, body = postJSON(t, ts2.URL+"/jobs/big/resume", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume: status %d (%s)", resp.StatusCode, body)
	}
	final := waitState(t, ts2.URL, "big", "done")
	if final.Result == nil || final.Result.Ordered != starWant || final.Result.Truncated {
		t.Fatalf("resumed result %+v, want exactly ordered=%d untruncated", final, starWant)
	}
	if final.Resumes != 1 {
		t.Errorf("resumes = %d want 1", final.Resumes)
	}
	if s2.jobsResumed.Value() != 1 {
		t.Errorf("jobs_resumed metric %d want 1", s2.jobsResumed.Value())
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("big.ckpt survived completion (err=%v)", err)
	}
}

// TestJobResumeCorruptSnapshotRejected: a damaged snapshot is refused with
// 422 and a descriptive error — never silently restarted from scratch.
func TestJobResumeCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "hurt.job"), []byte(`{"pattern": "0 1; 0 2"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "hurt.ckpt"), []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := jobsServer(t, Config{CheckpointDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/jobs/hurt/resume", "")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt snapshot resume: status %d want 422 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "snapshot unusable") {
		t.Errorf("error %q does not explain the snapshot is unusable", body)
	}
}

// TestJobResumeWithoutSnapshot: a job that died before its first checkpoint
// still resumes — from the persisted spec, starting over.
func TestJobResumeWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "early.job"), []byte(`{"pattern": "0 1; 0 2"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := jobsServer(t, Config{CheckpointDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, body := postJSON(t, ts.URL+"/jobs/early/resume", ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume without snapshot: status %d (%s)", resp.StatusCode, body)
	}
	st := waitState(t, ts.URL, "early", "done")
	if st.Result == nil || st.Result.Ordered != starWant {
		t.Fatalf("result %+v, want ordered=%d", st, starWant)
	}
}

// TestVariantRefused: "variant" is still a recognised key of POST /query,
// POST /jobs and a persisted .job spec, but only to be checked. The
// production configuration's own name passes; a baseline's is a 422 naming
// where baselines run, and a job file written while they were served here
// comes back as a failed job with that message — not a 400 for an unknown
// field, and not a silent run of something else.
func TestVariantRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "old.job"), []byte(`{"pattern": "0 1; 0 2", "variant": "HGMatch"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := jobsServer(t, Config{CheckpointDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	refusal := func(msg string) bool {
		return strings.Contains(msg, "HGMatch") && strings.Contains(msg, "ohmbench") && strings.Contains(msg, "ohminer -variant")
	}

	for _, path := range []string{"/query", "/jobs"} {
		resp, body := postJSON(t, ts.URL+path, `{"pattern": "0 1; 0 2", "variant": "OHMiner"}`)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			t.Errorf("POST %s variant=OHMiner: status %d (%s)", path, resp.StatusCode, body)
		}
		resp, body = postJSON(t, ts.URL+path, `{"pattern": "0 1; 0 2", "variant": "HGMatch"}`)
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || resp.StatusCode != http.StatusUnprocessableEntity || !refusal(er.Error) {
			t.Errorf("POST %s variant=HGMatch: status %d body %s, want a 422 saying where baselines run", path, resp.StatusCode, body)
		}
	}

	if resp, body := postJSON(t, ts.URL+"/jobs/old/resume", ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume of a persisted spec: status %d (%s)", resp.StatusCode, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, st := getStatus(t, ts.URL, "old")
		if st.State == "failed" && refusal(st.Error) {
			break
		}
		if st.State == "done" || time.Now().After(deadline) {
			t.Fatalf("persisted HGMatch job: state %q error %q, want failed with the refusal", st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
