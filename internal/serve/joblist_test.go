package serve

// Tests of the GET /jobs listing and of the cluster-coordinator mount.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"ohminer/internal/cluster"
)

func listJobs(t *testing.T, url string) (int, []cluster.JobStatus) {
	t.Helper()
	resp, err := http.Get(url + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []cluster.JobStatus `json:"jobs"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode job list: %v", err)
		}
	}
	return resp.StatusCode, out.Jobs
}

// TestJobListDisabled: GET /jobs is part of the jobs surface and refuses
// with 503 when no cluster coordinator is mounted.
func TestJobListDisabled(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := listJobs(t, ts.URL); code != http.StatusServiceUnavailable {
		t.Fatalf("GET /jobs without a coordinator: status %d, want 503", code)
	}
}

// TestJobList: the listing holds every job the coordinator knows, sorted by
// id whatever order they were created in, each with its state; files in the
// job directory that are not the coordinator's are not jobs.
func TestJobList(t *testing.T) {
	dir := t.TempDir()
	e := startJobs(t, starSession(t), dir, nil)

	if code, jobs := listJobs(t, e.url); code != http.StatusOK || len(jobs) != 0 {
		t.Fatalf("empty listing: status %d, %d jobs; want 200 and none", code, len(jobs))
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"zeta", "alpha"} {
		resp, body := postJSON(t, e.url+"/jobs", `{"id": "`+id+`", "pattern": "0 1; 0 2"}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("create %s: status %d (%s)", id, resp.StatusCode, body)
		}
	}
	waitJob(t, e.url, "zeta", "done", isDone)
	waitJob(t, e.url, "alpha", "done", isDone)

	code, jobs := listJobs(t, e.url)
	if code != http.StatusOK || len(jobs) != 2 {
		t.Fatalf("listing: status %d, %d jobs (%+v); want 200 and 2", code, len(jobs), jobs)
	}
	if jobs[0].ID != "alpha" || jobs[1].ID != "zeta" {
		t.Fatalf("listing order %q, %q; want alpha, zeta (sorted)", jobs[0].ID, jobs[1].ID)
	}
	for _, st := range jobs {
		if st.State != "done" || st.Ordered != starWant {
			t.Errorf("job listed as %+v, want done with ordered=%d", st, starWant)
		}
	}
}

// TestClusterMount: with Config.Cluster set, the coordinator's endpoints
// are served from the same mux as the query service; without it, /cluster
// does not exist.
func TestClusterMount(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	resp, err := http.Get(ts.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("GET /cluster answered 200 on a server without a coordinator")
	}

	base := testServer(t, Config{})
	coord, err := cluster.New(base.Session().Store(), cluster.Config{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(base.Session(), Config{Cluster: coord})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cluster: status %d, want 200", resp.StatusCode)
	}
	var st cluster.ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode cluster status: %v", err)
	}
	if st.GraphFP != base.Session().Store().Hypergraph().Fingerprint() {
		t.Error("mounted coordinator reports the wrong graph fingerprint")
	}
}
