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

	"ohminer"
)

// TestClusterSmoke is the end-to-end drill for the distributed cluster:
// build the real ohmserve and ohmworker binaries (race-instrumented when
// this test binary is), start a coordinator and three workers over the same
// dataset file, SIGKILL one worker right after it takes its first lease, and
// require that the job still completes with counts identical to a
// single-node run — the kill costs a reassignment, never an embedding.
// `make cluster-smoke` (wired into `make ci`) runs exactly this test.
// smokeWorkload writes the star dataset both binaries load — 60 edges all
// sharing vertex 0, so "0 1; 0 2" has 60×59 ordered embeddings — and mines
// it in-process for the single-node reference counts.
func smokeWorkload(t *testing.T, dir string) (dataPath string, ordered, unique uint64) {
	t.Helper()
	var data bytes.Buffer
	edges := make([][]uint32, 60)
	for i := range edges {
		edges[i] = []uint32{0, uint32(i) + 1}
		fmt.Fprintf(&data, "0 %d\n", i+1)
	}
	dataPath = filepath.Join(dir, "data.hg")
	if err := os.WriteFile(dataPath, data.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := ohminer.BuildHypergraph(61, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ohminer.ParsePattern("0 1; 0 2")
	if err != nil {
		t.Fatal(err)
	}
	single, err := ohminer.NewSession(ohminer.NewStore(h)).Mine(p)
	if err != nil {
		t.Fatalf("single-node reference run: %v", err)
	}
	return dataPath, single.Ordered, single.Unique
}

// buildSmokeBinaries compiles the real ohmserve and ohmworker into dir,
// race-instrumented when this test binary is.
func buildSmokeBinaries(t *testing.T, dir string) (serveBin, workerBin string) {
	t.Helper()
	serveBin = filepath.Join(dir, "ohmserve")
	workerBin = filepath.Join(dir, "ohmworker")
	for bin, pkg := range map[string]string{serveBin: "ohminer/cmd/ohmserve", workerBin: "."} {
		buildArgs := []string{"build"}
		if raceEnabled {
			buildArgs = append(buildArgs, "-race")
		}
		buildArgs = append(buildArgs, "-o", bin, pkg)
		if out, err := exec.Command("go", buildArgs...).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return serveBin, workerBin
}

// smokeJobStatus is the slice of the job-status JSON the smoke drills check.
type smokeJobStatus struct {
	State      string `json:"state"`
	Ordered    uint64 `json:"ordered"`
	Unique     uint64 `json:"unique"`
	Reassigned int    `json:"reassigned"`
	Error      string `json:"error"`
}

// smokeClusterStatus reads the slice of GET /cluster the durability
// assertions use.
type smokeCluster struct {
	Jobs           []smokeJobStatus `json:"jobs"`
	WALRecords     int64            `json:"wal_records"`
	WALCompactions int64            `json:"wal_compactions"`
}

func smokeClusterStatus(t *testing.T, base string) smokeCluster {
	t.Helper()
	resp, err := http.Get(base + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st smokeCluster
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode GET /cluster: %v", err)
	}
	return st
}

// waitSmokeJobDone polls the job until it is done (failing fast on a failed
// state), with the coordinator logs attached to any timeout.
func waitSmokeJobDone(t *testing.T, base, id string, limit time.Duration, coordLog *logWatcher) smokeJobStatus {
	t.Helper()
	var st smokeJobStatus
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(base + "/cluster/jobs/" + id)
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		if err == nil && st.State == "done" {
			return st
		}
		if err == nil && st.State == "failed" {
			t.Fatalf("cluster job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster job never completed (last: %+v); coordinator logs:\n%s", st, coordLog.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs child binaries")
	}
	dir := t.TempDir()
	dataPath, singleOrdered, singleUnique := smokeWorkload(t, dir)
	serveBin, workerBin := buildSmokeBinaries(t, dir)

	// Coordinator: short lease TTL so the killed worker's task is reclaimed
	// within the test's patience; 16 parts so every worker gets several.
	coord := exec.Command(serveBin,
		"-cluster",
		"-addr", "127.0.0.1:0",
		"-input", dataPath,
		"-cluster-parts", "16",
		"-lease-ttl", "500ms")
	coordLog := watchStderr(t, coord, "coordinator")
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()
	addr, ok := coordLog.waitFor("ohmserve: listening on ", 30*time.Second)
	if !ok {
		t.Fatalf("coordinator never announced its address; logs:\n%s", coordLog.String())
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/cluster/jobs", "application/json",
		strings.NewReader(`{"id": "smoke", "pattern": "0 1; 0 2"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create cluster job: status %d", resp.StatusCode)
	}

	// Three workers over the same file. The per-embedding throttle stretches
	// each ~220-embedding task to ~70ms so the kill lands mid-run.
	startWorker := func(name string) (*exec.Cmd, *logWatcher) {
		w := exec.Command(workerBin,
			"-coordinator", base,
			"-input", dataPath,
			"-name", name,
			"-workers", "2",
			"-poll", "100ms",
			"-throttle", "300us")
		lw := watchStderr(t, w, name)
		if err := w.Start(); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		return w, lw
	}
	w1, _ := startWorker("w1")
	defer w1.Process.Kill()
	w2, _ := startWorker("w2")
	defer w2.Process.Kill()
	w3, w3Log := startWorker("w3")
	defer w3.Process.Kill()

	// SIGKILL w3 the moment it holds a lease: the crash scenario — no
	// report, no heartbeat, just silence. Its task must be reassigned.
	if _, ok := w3Log.waitFor("lease ", 60*time.Second); !ok {
		t.Fatalf("w3 never leased a task; logs:\n%s", w3Log.String())
	}
	if err := w3.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = w3.Wait() // expected: "signal: killed"

	// The survivors finish the job, the killed worker's lease included.
	st := waitSmokeJobDone(t, base, "smoke", 120*time.Second, coordLog)
	if st.Ordered != singleOrdered || st.Unique != singleUnique {
		t.Errorf("cluster counted ordered=%d unique=%d, single-node %d/%d",
			st.Ordered, st.Unique, singleOrdered, singleUnique)
	}
	// The kill usually costs a reassignment, but w3 may have finished its
	// first task in the instant before the signal landed; that is a timing
	// artifact, not a correctness failure.
	if st.Reassigned == 0 {
		t.Logf("note: no reassignment recorded (w3 finished before the kill landed)")
	}

	// Surviving workers drain cleanly on SIGTERM (exit 0), and the
	// coordinator does too.
	for _, w := range []*exec.Cmd{w1, w2} {
		if err := w.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range []*exec.Cmd{w1, w2} {
		if err := w.Wait(); err != nil {
			t.Errorf("worker w%d exit: %v", i+1, err)
		}
	}
	if err := coord.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := coord.Wait(); err != nil {
		t.Errorf("coordinator exit: %v\nlogs:\n%s", err, coordLog.String())
	}
}

// TestClusterSmokeCoordinatorRestart is the durability half of the drill:
// the coordinator itself is SIGKILLed mid-job and restarted on the same port
// from the same -cluster-dir. The restarted process must replay the job from
// its WAL, force-expire the orphaned leases, and the three (untouched)
// workers must finish it with counts identical to a single-node run.
func TestClusterSmokeCoordinatorRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs child binaries")
	}
	dir := t.TempDir()
	dataPath, singleOrdered, singleUnique := smokeWorkload(t, dir)
	serveBin, workerBin := buildSmokeBinaries(t, dir)
	stateDir := filepath.Join(dir, "cluster-state")

	// startCoordinator reports ok=false when the process never announced a
	// listener (e.g. the restart lost the port-rebind race).
	startCoordinator := func(addr string, patience time.Duration) (*exec.Cmd, *logWatcher, string, bool) {
		coord := exec.Command(serveBin,
			"-cluster",
			"-addr", addr,
			"-input", dataPath,
			"-cluster-parts", "16",
			"-lease-ttl", "2s",
			"-cluster-dir", stateDir)
		log := watchStderr(t, coord, "coordinator")
		if err := coord.Start(); err != nil {
			t.Fatal(err)
		}
		got, ok := log.waitFor("ohmserve: listening on ", patience)
		return coord, log, got, ok
	}

	coord, coordLog, addr, ok := startCoordinator("127.0.0.1:0", 30*time.Second)
	if !ok {
		t.Fatalf("coordinator never announced its address; logs:\n%s", coordLog.String())
	}
	defer func() { coord.Process.Kill() }()
	base := "http://" + addr

	resp, err := http.Post(base+"/cluster/jobs", "application/json",
		strings.NewReader(`{"id": "smoke", "pattern": "0 1; 0 2"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create cluster job: status %d", resp.StatusCode)
	}

	// Three workers, none of them touched by the fault. The short max
	// backoff keeps their retry loops snappy across the coordinator gap;
	// the request timeout makes sure none of them hangs on the dying
	// coordinator's half-open sockets.
	startWorker := func(name string) *exec.Cmd {
		w := exec.Command(workerBin,
			"-coordinator", base,
			"-input", dataPath,
			"-name", name,
			"-workers", "2",
			"-poll", "50ms",
			"-max-backoff", "500ms",
			"-request-timeout", "2s",
			"-throttle", "300us")
		lw := watchStderr(t, w, name)
		if err := w.Start(); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		if name == "w1" {
			// Hold the test until at least one lease is out, so the kill
			// lands with real in-flight state in the WAL.
			if _, ok := lw.waitFor("lease ", 60*time.Second); !ok {
				t.Fatalf("w1 never leased a task; logs:\n%s", lw.String())
			}
		}
		return w
	}
	workers := []*exec.Cmd{startWorker("w1"), startWorker("w2"), startWorker("w3")}
	defer func() {
		for _, w := range workers {
			w.Process.Kill()
		}
	}()

	// SIGKILL the coordinator mid-job: no drain, no final sync — only what
	// the WAL already made durable survives.
	if err := coord.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = coord.Wait()

	// Restart on the same port from the same state directory. The listener
	// rebind can race the kernel reclaiming the port, so try a few times.
	var restartLog *logWatcher
	for attempt := 0; ; attempt++ {
		c, lg, _, ok := startCoordinator(addr, 10*time.Second)
		if ok {
			coord, restartLog = c, lg
			break
		}
		c.Process.Kill()
		_ = c.Wait()
		if attempt >= 5 {
			t.Fatalf("restarted coordinator never came up on %s; logs:\n%s", addr, lg.String())
		}
		time.Sleep(200 * time.Millisecond)
	}
	// The durable line prints before the listener, so it is already in the
	// buffer; "replayed jobs=1" is the WAL replay doing its job.
	if line, ok := restartLog.waitFor("replayed jobs=", time.Second); !ok || strings.HasPrefix(line, "0") {
		t.Fatalf("restarted coordinator replayed no jobs (line %q); logs:\n%s", line, restartLog.String())
	}

	st := waitSmokeJobDone(t, base, "smoke", 120*time.Second, restartLog)
	if st.Ordered != singleOrdered || st.Unique != singleUnique {
		t.Errorf("cluster counted ordered=%d unique=%d after coordinator restart, single-node %d/%d",
			st.Ordered, st.Unique, singleOrdered, singleUnique)
	}

	// What a job costs the durable coordinator, read off GET /cluster over
	// three more jobs of 8 parts on two workers (w3 drains first): one WAL
	// append per acknowledgement — admit, the two leases the idle workers
	// asked for, eight reports each carrying the next lease, finish — and a
	// compaction per stretch of log, not per job. Unshared fsyncs would
	// read 18 appends a job, per-job compaction one compaction a job.
	if err := workers[2].Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := workers[2].Wait(); err != nil {
		t.Errorf("worker w3 exit: %v", err)
	}
	workers = workers[:2]
	before := smokeClusterStatus(t, base)
	const extraJobs = 3
	for i := 0; i < extraJobs; i++ {
		id := fmt.Sprintf("extra-%d", i)
		resp, err := http.Post(base+"/cluster/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"id": %q, "pattern": "0 1; 0 2", "parts": 8}`, id)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("create %s: status %d", id, resp.StatusCode)
		}
		if st := waitSmokeJobDone(t, base, id, 120*time.Second, restartLog); st.Ordered != singleOrdered || st.Unique != singleUnique {
			t.Errorf("%s counted ordered=%d unique=%d, single-node %d/%d", id, st.Ordered, st.Unique, singleOrdered, singleUnique)
		}
	}
	after := smokeClusterStatus(t, base)
	perJob := float64(after.WALRecords-before.WALRecords) / extraJobs
	t.Logf("WAL appends per 8-part job: %.1f; compactions since restart: %d", perJob, after.WALCompactions)
	if perJob > 12 {
		t.Errorf("%.1f WAL appends per 8-part job (%d -> %d over %d jobs), want at most 12",
			perJob, before.WALRecords, after.WALRecords, extraJobs)
	}
	finished := 0
	for _, j := range after.Jobs {
		if j.State == "done" {
			finished++
		}
	}
	if finished != extraJobs+1 || after.WALCompactions >= int64(finished) {
		t.Errorf("%d WAL compactions for %d finished jobs, want fewer compactions than jobs", after.WALCompactions, finished)
	}

	// Everyone drains cleanly on SIGTERM.
	for _, w := range workers {
		if err := w.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range workers {
		if err := w.Wait(); err != nil {
			t.Errorf("worker w%d exit: %v", i+1, err)
		}
	}
	if err := coord.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := coord.Wait(); err != nil {
		t.Errorf("restarted coordinator exit: %v\nlogs:\n%s", err, restartLog.String())
	}
}

// logWatcher collects a child's stderr and lets the test wait for marker
// lines.
type logWatcher struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	waiters map[string]chan string
}

func watchStderr(t *testing.T, cmd *exec.Cmd, name string) *logWatcher {
	t.Helper()
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("%s stderr: %v", name, err)
	}
	lw := &logWatcher{waiters: map[string]chan string{}}
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			lw.mu.Lock()
			lw.buf.WriteString(line + "\n")
			for prefix, ch := range lw.waiters {
				if idx := strings.Index(line, prefix); idx >= 0 {
					select {
					case ch <- line[idx+len(prefix):]:
					default:
					}
					delete(lw.waiters, prefix)
				}
			}
			lw.mu.Unlock()
		}
	}()
	return lw
}

// waitFor blocks until a stderr line containing marker arrives (returning
// the remainder of the line after it) or the timeout passes.
func (lw *logWatcher) waitFor(marker string, timeout time.Duration) (string, bool) {
	ch := make(chan string, 1)
	lw.mu.Lock()
	if idx := strings.Index(lw.buf.String(), marker); idx >= 0 {
		rest := lw.buf.String()[idx+len(marker):]
		if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
			rest = rest[:nl]
		}
		lw.mu.Unlock()
		return rest, true
	}
	lw.waiters[marker] = ch
	lw.mu.Unlock()
	select {
	case rest := <-ch:
		return rest, true
	case <-time.After(timeout):
		return "", false
	}
}

func (lw *logWatcher) String() string {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.buf.String()
}
