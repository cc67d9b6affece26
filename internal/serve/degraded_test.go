package serve

// Degraded-mode admission: when the mounted cluster coordinator cannot make
// its state durable (disk full under the WAL), the whole service surface
// sheds with 503 + Retry-After — /jobs, and plain /query too, which would
// otherwise happily burn CPU on a node whose cluster half is refusing work —
// and recovers on its own once the WAL heals.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ohminer/internal/cluster"
	"ohminer/internal/faultinject"
)

func TestQueryShedsWhileCoordinatorDegraded(t *testing.T) {
	base := testServer(t, Config{})
	nw := &faultinject.NoSpaceWriter{}
	coord, err := cluster.New(base.Session().Store(), cluster.Config{
		Parts: 2, Dir: t.TempDir(),
		FlushEvery: 5 * time.Millisecond,
		WALWrap:    func(w io.Writer) io.Writer { nw.W = w; return nw },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	s := New(base.Session(), Config{Cluster: coord})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, body := postQuery(t, ts.URL, `{"pattern": "0 1; 1 2"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy query: status %d (%s)", resp.StatusCode, body)
	}

	// The disk fills. Degradation is observed on the first append that
	// fails — here a job admission the coordinator must refuse.
	nw.Break()
	if _, err := coord.StartJob("x", cluster.JobSpec{Pattern: "0 1; 1 2"}); err == nil {
		t.Fatal("StartJob succeeded with the WAL on a full disk")
	}
	resp, _ = postQuery(t, ts.URL, `{"pattern": "0 1; 1 2"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while degraded: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 carries no Retry-After")
	}
	if got := s.rejected.Value(); got == 0 {
		t.Error("degraded shed not counted in the rejected metric")
	}
	resp, body = postJSON(t, ts.URL+"/jobs", `{"pattern": "0 1; 1 2"}`)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("job while degraded: status %d Retry-After %q (%s), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}

	// Space frees up: the WAL flusher's probe record heals the coordinator
	// without a restart, and queries flow again.
	nw.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for coord.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("coordinator did not self-heal after the disk came back")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, body = postQuery(t, ts.URL, `{"pattern": "0 1; 1 2"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after heal: status %d (%s)", resp.StatusCode, body)
	}
}
