package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ohminer"
)

// hostileBound is how long each step may take for a 14-hyperedge pattern
// whose automorphism group has up to 14! elements.
const hostileBound = 2 * time.Second

// hostilePatterns are a 14-petal sunflower (|Aut| = 14!) and a 14-hyperedge
// pattern of two orbits, 7 petals of two vertices and 7 of three around one
// core vertex (|Aut| = 7!·7!), with their ordered counts in hostileSession's
// hypergraph, which holds one copy of each.
func hostilePatterns() (lits []string, ordered []uint64) {
	var sun, two []string
	for i := 0; i < 14; i++ {
		sun = append(sun, fmt.Sprintf("0 1 %d", 2+i))
		if i < 7 {
			two = append(two, fmt.Sprintf("0 %d", 1+i))
		} else {
			two = append(two, fmt.Sprintf("0 %d %d", 2*i-6, 2*i-5))
		}
	}
	const fact7, fact14 = 5040, 87178291200
	return []string{strings.Join(sun, "; "), strings.Join(two, "; ")}, []uint64{fact14, fact7 * fact7}
}

// hostileSession holds the two hostile patterns on disjoint vertex sets,
// vertices 0–15 and 16–37; edges are its hyperedges.
func hostileSession(t *testing.T) (sess *ohminer.Session, edges [][]uint32) {
	t.Helper()
	lits, _ := hostilePatterns()
	for i, lit := range lits {
		p, err := ohminer.ParsePattern(lit)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range p.Edges() {
			var shifted []uint32
			for _, v := range e {
				shifted = append(shifted, v+uint32(16*i))
			}
			edges = append(edges, shifted)
		}
	}
	h, err := ohminer.BuildHypergraph(38, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ohminer.NewSession(ohminer.NewStore(h)), edges
}

// timed runs step and fails the test if it took longer than hostileBound.
func timed(t *testing.T, what string, step func()) {
	t.Helper()
	start := time.Now()
	step()
	d := time.Since(start)
	t.Logf("%s: %v", what, d)
	if d > hostileBound {
		t.Fatalf("%s took %v, bound %v", what, d, hostileBound)
	}
}

// TestHostileSymmetricPatterns: the hostile patterns go through POST
// /query, POST /cluster/jobs followed by a coordinator restart that replays
// the WAL, and stream registration; every step answers with the exact count
// within the bound.
func TestHostileSymmetricPatterns(t *testing.T) {
	lits, want := hostilePatterns()
	sess, edges := hostileSession(t)

	ts := httptest.NewServer(New(sess, Config{StreamDir: t.TempDir(), Workers: 1}).Handler())
	defer ts.Close()
	for i, lit := range lits {
		timed(t, fmt.Sprintf("POST /query, pattern %d", i), func() {
			resp, body := postQuery(t, ts.URL, fmt.Sprintf(`{"pattern": %q}`, lit))
			var qr QueryResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &qr) != nil {
				t.Fatalf("pattern %d: status %d: %s", i, resp.StatusCode, body)
			}
			if qr.Ordered != want[i] || qr.Unique != 1 {
				t.Fatalf("pattern %d: ordered %d unique %d, want %d and 1", i, qr.Ordered, qr.Unique, want[i])
			}
		})
	}

	dir := t.TempDir()
	e1 := startJobs(t, sess, dir, nil)
	for i, lit := range lits {
		timed(t, fmt.Sprintf("POST /cluster/jobs until done, pattern %d", i), func() {
			id := fmt.Sprintf("h%d", i)
			resp, body := postJSON(t, e1.url+"/cluster/jobs", fmt.Sprintf(`{"id": %q, "pattern": %q}`, id, lit))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("pattern %d: status %d: %s", i, resp.StatusCode, body)
			}
			if st := waitJob(t, e1.url, id, "done", isDone); st.Ordered != want[i] {
				t.Fatalf("pattern %d: job %+v, want ordered %d", i, st, want[i])
			}
		})
	}
	e1.drain(t)
	var e2 *jobsEnv
	timed(t, "coordinator restart replaying the WAL", func() { e2 = startJobs(t, sess, dir, nil) })
	if st := e2.coord.Status(); st.ReplayedJobs != int64(len(lits)) {
		t.Fatalf("restart replayed %d jobs, want %d", st.ReplayedJobs, len(lits))
	}
	for i := range lits {
		if _, st := getStatus(t, e2.url, fmt.Sprintf("h%d", i)); st.State != "done" || st.Ordered != want[i] || st.Unique != 1 {
			t.Fatalf("pattern %d after the restart: %+v", i, st)
		}
	}
	e2.drain(t)

	if resp, body := postJSON(t, ts.URL+"/streams", `{"id": "s", "num_vertices": 38}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create stream: %d %s", resp.StatusCode, body)
	}
	batch, _ := json.Marshal(map[string]any{"seq": 1, "add": edges})
	if resp, body := postJSON(t, ts.URL+"/streams/s/batches", string(batch)); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	for i, lit := range lits {
		timed(t, fmt.Sprintf("stream RegisterQuery, pattern %d", i), func() {
			resp, body := postJSON(t, ts.URL+"/streams/s/queries", fmt.Sprintf(`{"pattern": %q}`, lit))
			var q ohminer.StreamQueryInfo
			if resp.StatusCode != http.StatusCreated || json.Unmarshal(body, &q) != nil {
				t.Fatalf("pattern %d: status %d: %s", i, resp.StatusCode, body)
			}
			if q.Total != want[i] || q.Unique != 1 {
				t.Fatalf("pattern %d: %+v, want total %d", i, q, want[i])
			}
		})
	}
}
