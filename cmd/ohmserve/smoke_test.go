package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildServe builds the real ohmserve binary into dir, race-instrumented
// when this test binary is.
func buildServe(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "ohmserve")
	buildArgs := []string{"build"}
	if raceEnabled {
		buildArgs = append(buildArgs, "-race")
	}
	buildArgs = append(buildArgs, "-o", bin, ".")
	if out, err := exec.Command("go", buildArgs...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestServeSmoke is the end-to-end drill for the query service: build the
// real ohmserve binary, start it on a tiny hypergraph, answer a query over
// HTTP, then SIGTERM it while a query is in flight and require that the
// in-flight query completes, the drain is clean, and the process exits 0.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs a child binary")
	}
	dir := t.TempDir()

	// Chain hypergraph: pattern "0 1; 1 2" has 4 ordered / 2 unique
	// embeddings in it.
	data := filepath.Join(dir, "data.hg")
	if err := os.WriteFile(data, []byte("0 1\n1 2\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := buildServe(t, dir)

	// -debug-delay keeps each query in flight long enough for the SIGTERM
	// to land mid-query; -drain gives the handler ample room to finish.
	cmd, base, logs, wait := startServer(t, bin, "-input", data, "-debug-delay", "500ms")

	query := func() (int, QueryResponseWire, error) {
		resp, err := http.Post(base+"/query", "application/json",
			strings.NewReader(`{"pattern": "0 1; 1 2"}`))
		if err != nil {
			return 0, QueryResponseWire{}, err
		}
		defer resp.Body.Close()
		var qr QueryResponseWire
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			return resp.StatusCode, qr, fmt.Errorf("decode: %w", err)
		}
		return resp.StatusCode, qr, nil
	}

	// A plain query round-trips with the exact counts.
	code, qr, err := query()
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || qr.Ordered != 4 || qr.Unique != 2 || qr.Truncated {
		t.Fatalf("query: status %d result %+v, want 200 ordered=4 unique=2 untruncated", code, qr)
	}

	// Launch an in-flight query (held by -debug-delay), then SIGTERM the
	// server while it is mining. Graceful drain must let it finish.
	var wg sync.WaitGroup
	wg.Add(1)
	var inFlightCode int
	var inFlightQR QueryResponseWire
	var inFlightErr error
	go func() {
		defer wg.Done()
		inFlightCode, inFlightQR, inFlightErr = query()
	}()
	time.Sleep(150 * time.Millisecond) // inside the 500ms debug delay
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if inFlightErr != nil {
		t.Fatalf("in-flight query during drain: %v\nlogs:\n%s", inFlightErr, logs())
	}
	if inFlightCode != http.StatusOK || inFlightQR.Ordered != 4 {
		t.Fatalf("in-flight query during drain: status %d result %+v, want 200 ordered=4",
			inFlightCode, inFlightQR)
	}
	if err := wait(); err != nil {
		t.Fatalf("server exit: %v\nlogs:\n%s", err, logs())
	}
	if !strings.Contains(logs(), "drained cleanly") {
		t.Fatalf("no clean-drain message in logs:\n%s", logs())
	}
}

// TestServeSmokeJobs drills durable jobs across a real process restart:
// ohmserve -checkpoint-dir mines a job with its in-process worker, is
// SIGKILLed mid-job, and a new process on the same directory finishes the
// job without being asked — with the count an unlimited POST /query
// returns. The new process then drains cleanly on SIGTERM.
func TestServeSmokeJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs a child binary")
	}
	dir := t.TempDir()

	// A 200-edge star: the 4-edge star pattern has 200·199·198·197 ordered
	// embeddings, over half a second of mining on one thread, split into 16
	// parts — long enough that the kill lands with parts left to mine.
	const n = 200
	const pat = "0 1; 0 2; 0 3; 0 4"
	var edges strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&edges, "0 %d\n", i)
	}
	data := filepath.Join(dir, "star.hg")
	if err := os.WriteFile(data, []byte(edges.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := buildServe(t, dir)

	// Refused at start: a directory holding a job of the older file-per-job
	// layout, and a -cluster-dir that is not the -checkpoint-dir.
	legacy := filepath.Join(dir, "legacy")
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(legacy, "old.job"), []byte(`{"pattern": "0 1; 0 2"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{
		{"-checkpoint-dir", legacy},
		{"-checkpoint-dir", filepath.Join(dir, "a"), "-cluster-dir", filepath.Join(dir, "b")},
	} {
		out, err := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-input", data}, bad...)...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), bad[1]) {
			t.Fatalf("ohmserve %v: err %v, output %q; want a refusal naming %s", bad, err, out, bad[1])
		}
	}

	args := []string{"-input", data, "-checkpoint-dir", filepath.Join(dir, "jobs"), "-workers", "1"}

	cmd, base, logs, wait := startServer(t, bin, args...)
	postWire(t, base+"/jobs", `{"id": "star", "pattern": "`+pat+`"}`, http.StatusAccepted, nil)
	// Kill once a part is merged, so the restart has merged parts to keep.
	var st jobStatusWire
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		getWire(t, base+"/jobs/star", &st)
		if st.State != "running" || st.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no part merged within a minute: %+v; logs:\n%s", st, logs())
		}
	}
	if st.State != "running" || st.Done >= st.Parts {
		t.Fatalf("job at the kill: %+v, want running with done < parts", st)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = wait() // reports the kill

	cmd, base, logs, wait = startServer(t, bin, args...)
	if !strings.Contains(logs(), "replayed jobs=1") {
		t.Fatalf("restarted server did not replay the job; logs:\n%s", logs())
	}
	for deadline := time.Now().Add(2 * time.Minute); st.State != "done"; time.Sleep(10 * time.Millisecond) {
		getWire(t, base+"/jobs/star", &st)
		if st.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job after the restart: %+v; logs:\n%s", st, logs())
		}
	}
	var qr QueryResponseWire
	postWire(t, base+"/query", `{"pattern": "`+pat+`", "timeout_ms": 120000}`, http.StatusOK, &qr)
	if qr.Truncated || qr.Ordered != n*(n-1)*(n-2)*(n-3) {
		t.Fatalf("query: %+v, want ordered=%d untruncated", qr, n*(n-1)*(n-2)*(n-3))
	}
	if st.Ordered != qr.Ordered {
		t.Fatalf("job counted %d across the kill, the query %d", st.Ordered, qr.Ordered)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatalf("server exit: %v\nlogs:\n%s", err, logs())
	}
	if !strings.Contains(logs(), "drained cleanly") {
		t.Fatalf("no clean-drain message in logs:\n%s", logs())
	}
}

// QueryResponseWire mirrors serve.QueryResponse over the wire (the smoke
// tests deliberately speak plain JSON like an external client would).
type QueryResponseWire struct {
	Ordered   uint64 `json:"ordered"`
	Unique    uint64 `json:"unique"`
	Truncated bool   `json:"truncated"`
}

// jobStatusWire mirrors the fields of cluster.JobStatus the jobs drill reads.
type jobStatusWire struct {
	State   string `json:"state"`
	Parts   int    `json:"parts"`
	Done    int    `json:"done"`
	Ordered uint64 `json:"ordered"`
	Error   string `json:"error"`
}
