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
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ohminer"
)

// TestStreamSmoke is the end-to-end drill for the streaming subsystem:
// build the real ohmserve binary, start it with -stream-dir, create a
// stream, register a standing query, feed sequenced batches while an SSE
// subscriber is attached, SIGKILL the server mid-stream, restart it on the
// same directory, replay the whole feed (already-applied batches must be
// acknowledged idempotently), and require that the cumulative per-query
// counts — both the pushed deltas and the stream status — exactly equal a
// from-scratch mine of the final live graph.
func TestStreamSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs a child binary")
	}
	dir := t.TempDir()
	streamDir := filepath.Join(dir, "streams")

	// The query service still needs a data hypergraph; the stream under
	// test is independent of it.
	data := filepath.Join(dir, "data.hg")
	if err := os.WriteFile(data, []byte("0 1\n1 2\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	bin := buildServe(t, dir)

	// The scripted feed. Retiring {0,1} in batch 3 and re-adding it in
	// batch 4 exercises resurrection across the crash boundary.
	const nv = 10
	const patternStr = "0 1; 1 2"
	feed := []streamBatchWire{
		{Seq: 1, Add: [][]uint32{{0, 1}, {1, 2}}},
		{Seq: 2, Add: [][]uint32{{2, 3}, {3, 4}}},
		{Seq: 3, Add: [][]uint32{{4, 5}}, Retire: [][]uint32{{0, 1}}},
		{Seq: 4, Add: [][]uint32{{0, 1}, {5, 6}, {6, 7}}, Retire: [][]uint32{{3, 4}}},
	}
	// oracle(k) mines the pattern from scratch over the live graph after
	// the first k batches.
	oracle := func(k int) uint64 {
		live := map[string][]uint32{}
		key := func(e []uint32) string {
			s := append([]uint32(nil), e...)
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			return fmt.Sprint(s)
		}
		for _, b := range feed[:k] {
			for _, e := range b.Add {
				live[key(e)] = e
			}
			for _, e := range b.Retire {
				delete(live, key(e))
			}
		}
		var edges [][]uint32
		for _, e := range live {
			edges = append(edges, e)
		}
		h, err := ohminer.BuildHypergraph(nv, edges, nil)
		if err != nil {
			t.Fatalf("oracle hypergraph: %v", err)
		}
		p, err := ohminer.ParsePattern(patternStr)
		if err != nil {
			t.Fatalf("oracle pattern: %v", err)
		}
		res, err := ohminer.Mine(ohminer.NewStore(h), p)
		if err != nil {
			t.Fatalf("oracle mine: %v", err)
		}
		return res.Ordered
	}
	midOracle, finalOracle := oracle(3), oracle(len(feed))
	if midOracle == finalOracle {
		t.Fatalf("degenerate feed: mid and final oracle both %d", midOracle)
	}

	// ---- Phase 1: fresh server, feed batches 1..3 with an SSE subscriber.
	cmd, base, logs, wait := startServer(t, bin, "-input", data, "-stream-dir", streamDir, "-stream-snapshot-every", "1")

	var created streamStatusWire
	postWire(t, base+"/streams", `{"id":"smoke","num_vertices":10}`, http.StatusCreated, &created)

	var q ohminer.StreamQueryInfo
	postWire(t, base+"/streams/smoke/queries", `{"pattern":"`+patternStr+`"}`, http.StatusCreated, &q)

	events := make(chan ohminer.StreamDelta, 16)
	sseResp, err := http.Get(fmt.Sprintf("%s/streams/smoke/queries/%d/events?after=0", base, q.ID))
	if err != nil {
		t.Fatalf("sse subscribe: %v", err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("sse content-type: %q", ct)
	}
	go func() {
		sc := bufio.NewScanner(sseResp.Body)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var d ohminer.StreamDelta
				if json.Unmarshal([]byte(data), &d) == nil {
					events <- d
				}
			}
		}
	}()

	ledger := make(map[uint64]ohminer.StreamDelta) // event seq -> delta
	postBatch := func(b streamBatchWire, wantApplied bool) streamBatchRespWire {
		t.Helper()
		body, _ := json.Marshal(b)
		var br streamBatchRespWire
		postWire(t, base+"/streams/smoke/batches", string(body), http.StatusOK, &br)
		if br.Applied != wantApplied {
			t.Fatalf("batch %d: applied=%v, want %v", b.Seq, br.Applied, wantApplied)
		}
		for _, d := range br.Deltas {
			if d.QueryID == q.ID {
				ledger[d.Seq] = d
			}
		}
		return br
	}
	for _, b := range feed[:3] {
		postBatch(b, true)
	}

	// The three pushed events must match the inline deltas exactly, and
	// the last one must carry the mid-stream oracle total.
	for i := 1; i <= 3; i++ {
		select {
		case d := <-events:
			want, ok := ledger[d.Seq]
			if !ok {
				t.Fatalf("sse event seq %d not in batch-response ledger", d.Seq)
			}
			d.ElapsedMS, want.ElapsedMS = 0, 0
			if d != want {
				t.Fatalf("sse event %d: %+v, want %+v", d.Seq, d, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("sse event %d never arrived; logs:\n%s", i, logs())
		}
	}
	if got := ledger[3].Total; got != midOracle {
		t.Fatalf("mid-stream total %d, want oracle %d", got, midOracle)
	}

	// ---- SIGKILL mid-stream: no drain, no goodbye. Durability must come
	// from the per-batch snapshots alone.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = wait() // expected to report the kill

	// ---- Phase 2: restart on the same directory and replay the entire
	// feed. Batches 1..3 were durably applied, so they must come back as
	// idempotent non-applies; batch 4 applies fresh.
	cmd2, base2, logs2, wait2 := startServer(t, bin, "-input", data, "-stream-dir", streamDir, "-stream-snapshot-every", "1")
	if !strings.Contains(logs2(), "streams durable in") {
		t.Fatalf("restarted server did not announce stream durability; logs:\n%s", logs2())
	}
	base = base2

	// A post-restart subscriber sees only new events (the ring is not
	// durable), delivered live when batch 4 applies.
	events2 := make(chan ohminer.StreamDelta, 16)
	sseResp2, err := http.Get(fmt.Sprintf("%s/streams/smoke/queries/%d/events?after=0", base, q.ID))
	if err != nil {
		t.Fatalf("sse resubscribe: %v", err)
	}
	defer sseResp2.Body.Close()
	go func() {
		sc := bufio.NewScanner(sseResp2.Body)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var d ohminer.StreamDelta
				if json.Unmarshal([]byte(data), &d) == nil {
					events2 <- d
				}
			}
		}
	}()

	for _, b := range feed[:3] {
		postBatch(b, false)
	}
	br := postBatch(feed[3], true)
	if br.Epoch != 4 {
		t.Fatalf("post-resume epoch %d, want 4", br.Epoch)
	}

	select {
	case d := <-events2:
		if d.Seq != 4 || d.Total != finalOracle {
			t.Fatalf("post-resume sse event: %+v, want seq=4 total=%d", d, finalOracle)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("post-resume sse event never arrived; logs:\n%s", logs2())
	}

	// The delta ledger (batches 1..3 pre-crash, 4 post-resume) must sum
	// to the from-scratch oracle, and the server's own status must agree.
	var sum uint64
	for seq := uint64(1); seq <= 4; seq++ {
		d, ok := ledger[seq]
		if !ok {
			t.Fatalf("missing delta for event seq %d", seq)
		}
		sum += d.Added - d.Retired
	}
	if sum != finalOracle {
		t.Fatalf("delta sum %d, want oracle %d", sum, finalOracle)
	}
	var st streamStatusWire
	getWire(t, base+"/streams/smoke", &st)
	if st.Epoch != 4 || len(st.Queries) != 1 || st.Queries[0].Total != finalOracle {
		t.Fatalf("final status %+v, want epoch=4 total=%d", st, finalOracle)
	}

	// A graceful shutdown still works after the chaos.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := wait2(); err != nil {
		t.Fatalf("server exit: %v\nlogs:\n%s", err, logs2())
	}
	if !strings.Contains(logs2(), "drained cleanly") {
		t.Fatalf("no clean-drain message in logs:\n%s", logs2())
	}
}

// startStreamServer launches the built ohmserve binary with streaming
// enabled and waits for its listening announcement. wait reads the server's
// log to the end, then waits for it to exit: cmd.Wait alone closes the pipe
// and may lose the last lines.
// startServer starts bin on a free loopback port with args and returns once
// it announces its address. wait reads the logs to the end, then waits for
// the process.
func startServer(t *testing.T, bin string, args ...string) (cmd *exec.Cmd, base string, logs func() string, wait func() error) {
	t.Helper()
	cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-drain", "30s"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() }) // no-op after a clean Wait

	var logMu sync.Mutex
	var logBuf bytes.Buffer
	logs = func() string { logMu.Lock(); defer logMu.Unlock(); return logBuf.String() }
	addrCh := make(chan string, 1)
	logsDone := make(chan struct{})
	wait = func() error { <-logsDone; return cmd.Wait() }
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
	select {
	case addr := <-addrCh:
		return cmd, "http://" + addr, logs, wait
	case <-time.After(30 * time.Second):
		t.Fatalf("server never announced its address; logs:\n%s", logs())
		return nil, "", nil, nil
	}
}

func postWire(t *testing.T, url, body string, wantCode int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, wantCode, msg.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
}

func getWire(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// Wire mirrors of the serve stream API (the smoke test deliberately speaks
// plain JSON like an external client would).
type streamBatchWire struct {
	Seq    uint64     `json:"seq"`
	Add    [][]uint32 `json:"add,omitempty"`
	Retire [][]uint32 `json:"retire,omitempty"`
}

type streamBatchRespWire struct {
	Applied bool                  `json:"applied"`
	Epoch   uint64                `json:"epoch"`
	Added   int                   `json:"added"`
	Retired int                   `json:"retired"`
	Deltas  []ohminer.StreamDelta `json:"deltas"`
}

type streamStatusWire struct {
	ID           string                    `json:"id"`
	Epoch        uint64                    `json:"epoch"`
	LiveEdges    int                       `json:"live_edges"`
	RetiredEdges int                       `json:"retired_edges"`
	Queries      []ohminer.StreamQueryInfo `json:"queries"`
}
