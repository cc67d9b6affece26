package main

import (
	"bufio"
	"bytes"
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

// TestServeSmoke is the end-to-end drill for the query service: build the
// real ohmserve binary (race-instrumented when this test binary is), start
// it on a tiny hypergraph, answer a query over HTTP, then SIGTERM it while
// a query is in flight and require that the in-flight query completes, the
// drain is clean, and the process exits 0.
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

	bin := filepath.Join(dir, "ohmserve")
	buildArgs := []string{"build"}
	if raceEnabled {
		buildArgs = append(buildArgs, "-race")
	}
	buildArgs = append(buildArgs, "-o", bin, ".")
	if out, err := exec.Command("go", buildArgs...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// -debug-delay keeps each query in flight long enough for the SIGTERM
	// to land mid-query; -drain gives the handler ample room to finish.
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-input", data,
		"-debug-delay", "500ms",
		"-drain", "30s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // no-op after a clean Wait

	// The server prints "ohmserve: listening on HOST:PORT" once the
	// listener is up; everything after that is collected for the drain
	// assertions.
	var logMu sync.Mutex
	var logBuf bytes.Buffer
	logs := func() string { logMu.Lock(); defer logMu.Unlock(); return logBuf.String() }
	addrCh := make(chan string, 1)
	logsDone := make(chan struct{})
	go func() {
		defer close(logsDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			logBuf.WriteString(line + "\n")
			logMu.Unlock()
			if rest, ok := strings.CutPrefix(line, "ohmserve: listening on "); ok {
				addrCh <- rest
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("server never announced its address; logs:\n%s", logs())
	}
	base := "http://" + addr

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

	// Wait closes the stderr pipe: read it to the end first, or the last
	// lines may be lost.
	<-logsDone
	if err := cmd.Wait(); err != nil {
		t.Fatalf("server exit: %v\nlogs:\n%s", err, logs())
	}
	if !strings.Contains(logs(), "drained cleanly") {
		t.Fatalf("no clean-drain message in logs:\n%s", logs())
	}
}

// QueryResponseWire mirrors serve.QueryResponse over the wire (the smoke
// test deliberately speaks plain JSON like an external client would).
type QueryResponseWire struct {
	Ordered   uint64 `json:"ordered"`
	Unique    uint64 `json:"unique"`
	Truncated bool   `json:"truncated"`
}
