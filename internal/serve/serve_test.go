package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ohminer"
)

// fixture: a 3-edge chain hypergraph. Pattern "0 1; 1 2" has 4 ordered /
// 2 unique embeddings (pairs e0–e1 and e1–e2, each in both orders).
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	h, err := ohminer.BuildHypergraph(4, [][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(ohminer.NewSession(ohminer.NewStore(h)), cfg)
}

func postQuery(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestQueryOK(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, body := postQuery(t, ts.URL, `{"pattern": "0 1; 1 2"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Ordered != 4 || qr.Unique != 2 || qr.Truncated {
			t.Fatalf("run %d: got %+v, want ordered=4 unique=2 untruncated", i, qr)
		}
	}
	hits, misses := s.Session().CacheStats()
	if misses != 1 || hits != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 2/1", hits, misses)
	}
	if got := s.queries.Value(); got != 3 {
		t.Errorf("queries metric %d want 3", got)
	}
}

// TestQueryDataAwareOrderRefused: "data_aware_order" named a matching-order
// option that no longer exists, so a body carrying it is refused with a 400
// under DisallowUnknownFields, whatever its value, and compiles no plan.
func TestQueryDataAwareOrderRefused(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range []string{`{"pattern": "0 1; 1 2", "data_aware_order": true}`, `{"pattern": "0 1; 1 2", "data_aware_order": false}`} {
		if resp, out := postQuery(t, ts.URL, body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, %s", body, resp.StatusCode, out)
		}
	}
	if hits, misses := s.Session().CacheStats(); hits != 0 || misses != 0 {
		t.Errorf("cache hits/misses = %d/%d, want 0/0: a refused body must not reach the session", hits, misses)
	}
}

func TestQueryRejections(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{pattern}`, http.StatusBadRequest},
		{"missing pattern", `{}`, http.StatusBadRequest},
		{"bad pattern", `{"pattern": "frogs"}`, http.StatusBadRequest},
		{"unknown field", `{"pattern": "0 1", "frob": 1}`, http.StatusBadRequest},
		{"unknown variant", `{"pattern": "0 1; 1 2", "variant": "Nope"}`, http.StatusUnprocessableEntity},
		{"baseline variant", `{"pattern": "0 1; 1 2", "variant": "HGMatch"}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, body := postQuery(t, ts.URL, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, body)
		}
	}
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d want 405", resp.StatusCode)
	}
}

// TestQueryLimitTruncates drives the Limit→Truncated path end to end, and
// its exactly-at-total complement: a limit equal to the full count must
// come back un-truncated (the Result.Truncated bugfix, observed through
// the service).
func TestQueryLimitTruncates(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts.URL, `{"pattern": "0 1; 1 2", "limit": 1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Truncated || qr.Ordered == 0 {
		t.Fatalf("limit 1: got %+v, want a truncated partial count", qr)
	}
	if s.truncations.Value() != 1 {
		t.Errorf("truncations metric %d want 1", s.truncations.Value())
	}

	resp, body = postQuery(t, ts.URL, `{"pattern": "0 1; 1 2", "limit": 4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Truncated || qr.Ordered != 4 {
		t.Fatalf("limit 4 (= total): got %+v, want full un-truncated count", qr)
	}
}

// TestMaxLimitApplied: the server-side cap applies to unlimited requests.
func TestMaxLimitApplied(t *testing.T) {
	s := testServer(t, Config{MaxLimit: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postQuery(t, ts.URL, `{"pattern": "0 1; 1 2"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Truncated {
		t.Fatalf("MaxLimit 1: got %+v, want truncated", qr)
	}
}

// TestAdmissionSheds: with one mining slot held by a slow query, a second
// query whose admission wait exceeds its timeout is shed with 503.
func TestAdmissionSheds(t *testing.T) {
	s := testServer(t, Config{MaxConcurrent: 1, DebugDelay: 400 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postQuery(t, ts.URL, `{"pattern": "0 1; 1 2"}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("slot-holding query: status %d", resp.StatusCode)
		}
	}()
	time.Sleep(100 * time.Millisecond) // let the first query take the slot
	resp, body := postQuery(t, ts.URL, `{"pattern": "0 1; 1 2", "timeout_ms": 50}`)
	wg.Wait()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued query: status %d want 503 (%s)", resp.StatusCode, body)
	}
	if s.rejected.Value() == 0 {
		t.Error("rejected metric did not count the shed query")
	}
}

// TestAbortCancelsInFlight: Abort (the post-drain escalation) cancels a
// query sitting in the debug-delay window.
func TestAbortCancelsInFlight(t *testing.T) {
	s := testServer(t, Config{DebugDelay: 2 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, _ := postQuery(t, ts.URL, `{"pattern": "0 1; 1 2"}`)
		done <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	s.Abort()
	select {
	case code := <-done:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("aborted query: status %d want 503", code)
		}
		if since := time.Since(start); since > time.Second {
			t.Errorf("abort→response took %v", since)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("aborted query never returned")
	}
}

func TestHealthz(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" || hz["edges"] != float64(3) || hz["vertices"] != float64(4) {
		t.Fatalf("healthz %v", hz)
	}
}

// TestVarsEndpoint: /debug/vars is valid JSON carrying this server's
// metrics (not just the process-global first instance).
func TestVarsEndpoint(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, body := postQuery(t, ts.URL, `{"pattern": "0 1; 1 2"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Ohmserve struct {
			Queries     int64 `json:"queries"`
			CacheMisses int64 `json:"cache_misses"`
			InFlight    int64 `json:"in_flight"`
		} `json:"ohmserve"`
		Memstats map[string]any `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("vars not valid JSON: %v", err)
	}
	if vars.Ohmserve.Queries != 1 || vars.Ohmserve.CacheMisses != 1 {
		t.Errorf("vars ohmserve = %+v", vars.Ohmserve)
	}
	if vars.Memstats == nil {
		t.Error("vars missing the standard expvar memstats")
	}
}

// TestTimeoutReturnsPartial: a request-level timeout maps to the engine
// deadline — the response is a 200 with truncated counts, not an error.
// The debug delay eats most of the budget so mining starts with a deadline
// that has nearly expired.
func TestTimeoutReturnsPartial(t *testing.T) {
	// A denser chain so the query has real work to truncate.
	edges := make([][]uint32, 0, 60)
	for i := uint32(0); i < 60; i++ {
		edges = append(edges, []uint32{i, i + 1, i + 2})
	}
	h, err := ohminer.BuildHypergraph(64, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(ohminer.NewSession(ohminer.NewStore(h)), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// timeout_ms=1 with an OnEmbedding-free run may still finish; accept
	// either outcome but require a 200 and consistent flags.
	resp, body := postQuery(t, ts.URL, fmt.Sprintf(`{"pattern": "0 1; 1 2; 2 3", "timeout_ms": %d}`, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
}
