package cluster

// Durability tests for the coordinator WAL (wal.go): crash/replay with the
// exactly-once merge contract, torn-tail tolerance, corrupt-record refusal,
// snapshot+log compaction equivalence, and the full-disk degrade/self-heal
// loop. Crashes are simulated with wal.kill() — flusher stopped, file
// abandoned unsynced — and a second coordinator opened over the same
// directory, exactly what a restarted process does.

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ohminer/internal/dal"
	"ohminer/internal/durable"
	"ohminer/internal/faultinject"
)

// durableCluster builds a coordinator over dir plus its HTTP surface.
func durableCluster(t *testing.T, store *dal.Store, dir string, clk *fakeClock) (*Coordinator, *httptest.Server) {
	t.Helper()
	return testCluster(t, store, Config{
		LeaseTTL: 10 * time.Second, Parts: 4, Dir: dir, now: clk.Now,
	})
}

// crash abandons the coordinator's WAL without a clean close, simulating a
// process kill. The httptest server keeps answering from the dead state
// until the test stops using it.
func crash(c *Coordinator) { c.wal.kill() }

// TestWALReplayThenMergeExactlyOnce is the headline durability contract: a
// coordinator dies with one task merged and another
// leased out; the restarted coordinator replays its state, resurrects the
// in-flight lease as pending (same epoch), salvages the pre-crash worker's
// late report exactly once, fences a duplicate of the already-merged report,
// and finishes with single-node-exact counts.
func TestWALReplayThenMergeExactlyOnce(t *testing.T) {
	t.Run("split=0", func(t *testing.T) {
		store, pat, want := starWorkload(t)
		dir := t.TempDir()
		clk := newFakeClock()

		c1, srv1 := durableCluster(t, store, dir, clk)
		if _, err := c1.StartJob("j", JobSpec{Pattern: pat}); err != nil {
			t.Fatalf("start job: %v", err)
		}
		merged := leaseAs(t, srv1, store, "w1")
		if merged == nil {
			t.Fatal("no lease granted")
		}
		mergedRep := mineLease(t, store, merged)
		mergedRep.Worker = "w1"
		if code := postJSON(t, srv1, "/cluster/report", mergedRep, nil); code != http.StatusOK {
			t.Fatalf("report: status %d", code)
		}
		inflight := leaseAs(t, srv1, store, "w1")
		if inflight == nil {
			t.Fatal("no second lease granted")
		}
		// The worker mines the in-flight lease… and the coordinator dies.
		inflightRep := mineLease(t, store, inflight)
		inflightRep.Worker = "w1"
		crash(c1)

		c2, srv2 := durableCluster(t, store, dir, clk)
		st, ok := c2.JobStatusByID("j")
		if !ok {
			t.Fatal("job lost across restart")
		}
		if st.State != "running" || st.Done != 1 || st.Ordered != mergedRep.Ordered {
			t.Fatalf("replayed job: state=%s done=%d ordered=%d, want running/1/%d",
				st.State, st.Done, st.Ordered, mergedRep.Ordered)
		}
		if st.Leased != 0 {
			t.Fatalf("replayed job still shows %d leased tasks; all leases must be force-expired", st.Leased)
		}
		cst := c2.Status()
		if cst.ReplayedJobs != 1 || cst.ResurrectedLeases != 1 {
			t.Fatalf("recovery counters: replayed=%d resurrected=%d, want 1/1", cst.ReplayedJobs, cst.ResurrectedLeases)
		}
		if !cst.Durable {
			t.Fatal("durable coordinator reports durable=false")
		}

		// The pre-crash worker's report arrives late: epoch still matches
		// the resurrected (pending) task, so the work is salvaged.
		if code := postJSON(t, srv2, "/cluster/report", inflightRep, nil); code != http.StatusOK {
			t.Fatalf("salvage report after restart: status %d", code)
		}
		// A duplicate of the pre-crash merged report must be fenced: that
		// task was already counted, replay included.
		if code := postJSON(t, srv2, "/cluster/report", mergedRep, nil); code != http.StatusGone {
			t.Fatalf("duplicate report: status %d, want 410", code)
		}
		drainJob(t, srv2, store, "w2")
		st, _ = c2.JobStatusByID("j")
		if st.State != "done" || st.Ordered != want {
			t.Fatalf("after restart: state=%s ordered=%d, want done/%d", st.State, st.Ordered, want)
		}

		// Third incarnation: the finished job survives compaction and
		// another replay with the same exact count.
		c2.Close()
		c3, _ := durableCluster(t, store, dir, clk)
		st, ok = c3.JobStatusByID("j")
		if !ok || st.State != "done" || st.Ordered != want {
			t.Fatalf("second restart: ok=%v state=%s ordered=%d, want done/%d", ok, st.State, st.Ordered, want)
		}
	})
}

// TestWALTornFinalRecordTolerated crashes mid-append: a torn final frame
// (and, separately, a few garbage bytes) after valid records must be
// truncated away while every intact record replays.
func TestWALTornFinalRecordTolerated(t *testing.T) {
	for _, tear := range []struct {
		name string
		tail func() []byte
	}{
		{"half-frame", func() []byte {
			// A plausible length prefix promising more bytes than exist.
			tail := make([]byte, 14)
			binary.LittleEndian.PutUint32(tail, 100)
			copy(tail[4:], "{\"seq\":99,")
			return tail
		}},
		{"two-bytes", func() []byte { return []byte{0x7f, 0x01} }},
	} {
		t.Run(tear.name, func(t *testing.T) {
			store, pat, _ := starWorkload(t)
			dir := t.TempDir()
			clk := newFakeClock()

			c1, srv1 := durableCluster(t, store, dir, clk)
			if _, err := c1.StartJob("j", JobSpec{Pattern: pat}); err != nil {
				t.Fatalf("start job: %v", err)
			}
			lease := leaseAs(t, srv1, store, "w1")
			if lease == nil {
				t.Fatal("no lease granted")
			}
			crash(c1)

			path := filepath.Join(dir, walFile)
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tear.tail()); err != nil {
				t.Fatal(err)
			}
			f.Close()

			c2, _ := durableCluster(t, store, dir, clk)
			st, ok := c2.JobStatusByID("j")
			if !ok || st.State != "running" {
				t.Fatalf("torn tail lost the job: ok=%v state=%s", ok, st.State)
			}
			// The admitted job and its grant both replayed: the granted task
			// is pending again with its epoch intact.
			if st.Tasks[lease.Task].Epoch != lease.Epoch {
				t.Fatalf("task epoch %d, want %d preserved across torn-tail replay",
					st.Tasks[lease.Task].Epoch, lease.Epoch)
			}
		})
	}
}

// TestWALCorruptRecordRefused flips a byte inside a complete mid-file record:
// that is not a torn tail, it is corruption, and startup must refuse with
// ErrCorrupt instead of mining from a wrong lease state.
func TestWALCorruptRecordRefused(t *testing.T) {
	store, pat, _ := starWorkload(t)
	dir := t.TempDir()
	clk := newFakeClock()

	c1, srv1 := durableCluster(t, store, dir, clk)
	if _, err := c1.StartJob("j", JobSpec{Pattern: pat}); err != nil {
		t.Fatalf("start job: %v", err)
	}
	if lease := leaseAs(t, srv1, store, "w1"); lease == nil {
		t.Fatal("no lease granted")
	}
	crash(c1)

	path := filepath.Join(dir, walFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// First frame starts after the header: flip a payload byte.
	n := binary.LittleEndian.Uint32(data[walHdrLen:])
	if int(walHdrLen+4+n) > len(data) {
		t.Fatalf("test setup: first frame (%d bytes) overruns file (%d)", n, len(data))
	}
	data[walHdrLen+4+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = New(store, Config{Dir: dir, now: clk.Now})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt record: err=%v, want ErrCorrupt", err)
	}

	// Same contract for a corrupt state snapshot.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(dir, stateFile)
	sdata := make([]byte, walHdrLen+8)
	binary.LittleEndian.PutUint32(sdata, stateMagic)
	binary.LittleEndian.PutUint32(sdata[4:], stateVersion)
	binary.LittleEndian.PutUint32(sdata[len(sdata)-4:], durable.Checksum(sdata[:len(sdata)-4])^0xdeadbeef)
	if err := os.WriteFile(spath, sdata, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = New(store, Config{Dir: dir, now: clk.Now})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: err=%v, want ErrCorrupt", err)
	}
}

// TestWALCompactionBySizeRecoveryEquivalence: compaction follows the size of
// the log, not the number of finished jobs, and snapshot ∘ log replay
// reproduces the live state whichever side of the last compaction a job
// ended on. Jobs folded into the snapshot come back from their counters alone
// (no plan); the one still running is recompiled and finishes exact.
func TestWALCompactionBySizeRecoveryEquivalence(t *testing.T) {
	store, pat, want := starWorkload(t)
	dir := t.TempDir()
	clk := newFakeClock()

	c1, srv1 := durableCluster(t, store, dir, clk)
	var ids []string
	inSnapshot := 0 // jobs finished when the last compaction ran
	for compactions := int64(0); compactions < 2; {
		if len(ids) >= 400 {
			t.Fatalf("no second compaction after %d jobs (%d so far)", len(ids), compactions)
		}
		id := fmt.Sprintf("j%d", len(ids))
		if _, err := c1.StartJob(id, JobSpec{Pattern: pat}); err != nil {
			t.Fatal(err)
		}
		drainJob(t, srv1, store, "w1")
		ids = append(ids, id)
		if _, _, n := c1.wal.stats(); n > compactions {
			compactions, inSnapshot = n, len(ids)
		}
	}
	// A few more finished jobs stay in the log tail, then one runs part-way.
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("j%d", len(ids))
		if _, err := c1.StartJob(id, JobSpec{Pattern: pat}); err != nil {
			t.Fatal(err)
		}
		drainJob(t, srv1, store, "w1")
		ids = append(ids, id)
	}
	if _, _, n := c1.wal.stats(); n != 2 || int(n) >= inSnapshot {
		t.Fatalf("%d compactions for %d finished jobs (%d folded in): want 2, far fewer than jobs", n, len(ids), inSnapshot)
	}
	if fi, err := os.Stat(filepath.Join(dir, walFile)); err != nil || fi.Size() > walCompactBytes+4096 {
		t.Fatalf("wal.log is %d bytes (err %v): the size trigger should keep it near %d", fi.Size(), err, walCompactBytes)
	}
	if _, err := c1.StartJob("running", JobSpec{Pattern: pat}); err != nil {
		t.Fatal(err)
	}
	lease := leaseAs(t, srv1, store, "w1")
	rep := mineLease(t, store, lease)
	rep.Worker = "w1"
	if code := postJSON(t, srv1, "/cluster/report", rep, nil); code != http.StatusOK {
		t.Fatalf("report: status %d", code)
	}
	before := map[string]JobStatus{}
	for _, id := range append(ids, "running") {
		before[id], _ = c1.JobStatusByID(id)
	}
	crash(c1)

	c2, srv2 := durableCluster(t, store, dir, clk)
	for i, id := range ids {
		after, ok := c2.JobStatusByID(id)
		if !ok {
			t.Fatalf("job %s lost", id)
		}
		if !reflect.DeepEqual(after, before[id]) {
			t.Fatalf("finished job %s diverged:\n live  %+v\n replay %+v", id, before[id], after)
		}
		if after.State != "done" || after.Ordered != want || after.Unique != want/uint64(after.Automorphisms) {
			t.Fatalf("job %s: %+v, want done with %d ordered", id, after, want)
		}
		c2.mu.Lock()
		plan := c2.jobs[id].plan
		c2.mu.Unlock()
		if i < inSnapshot && plan != nil {
			t.Fatalf("job %s was restored from the snapshot yet carries a compiled plan", id)
		}
	}
	after, ok := c2.JobStatusByID("running")
	b := before["running"]
	if !ok || after.State != "running" || after.Ordered != b.Ordered || after.Done != b.Done ||
		after.Parts != b.Parts || after.Automorphisms != b.Automorphisms || len(after.Tasks) != len(b.Tasks) {
		t.Fatalf("running job diverged:\n live  %+v\n replay %+v", b, after)
	}
	for i := range after.Tasks {
		if after.Tasks[i].Epoch != b.Tasks[i].Epoch || after.Tasks[i].Ordered != b.Tasks[i].Ordered || after.Tasks[i].Cands != b.Tasks[i].Cands {
			t.Fatalf("running job task %d diverged: live %+v, replay %+v", i, b.Tasks[i], after.Tasks[i])
		}
	}
	if st := c2.Status(); st.ReplayedJobs != int64(len(ids))+1 {
		t.Fatalf("replayed %d jobs, want %d", st.ReplayedJobs, len(ids)+1)
	}
	drainJob(t, srv2, store, "w2")
	final, _ := c2.JobStatusByID("running")
	if final.State != "done" || final.Ordered != want {
		t.Fatalf("running job after restart: state=%s ordered=%d, want done/%d", final.State, final.Ordered, want)
	}
}

// walFrameBounds walks wal.log and returns the offset each frame starts at,
// plus the end of the last one.
func walFrameBounds(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{walHdrLen}
	for pos := int64(walHdrLen); pos < int64(len(data)); {
		pos += durable.FrameOverhead + int64(binary.LittleEndian.Uint32(data[pos:]))
		bounds = append(bounds, pos)
	}
	return bounds
}

// TestWALReportAndLeaseAppend is the crash drill on the append that carries a
// merged report and the lease granted on its ack: whatever cuts it short,
// replay finds the report and the grant, the report alone, or neither —
// never a grant whose report is missing — and the job still ends exact.
func TestWALReportAndLeaseAppend(t *testing.T) {
	type outcome struct {
		merged  int    // tasks merged after replay
		granted uint64 // epoch of the task the ack leased, after replay
	}
	// Appends of the drill: 1 admit, 2 grant (first lease), 3 report + grant.
	for _, tc := range []struct {
		name string
		wrap func(io.Writer) io.Writer
		// cut, when set, truncates the crashed log: 0 leaves it whole, 1 ends
		// it inside the last frame, 2 inside the one before.
		cut   int
		acked bool
		want  outcome
	}{
		{name: "kill-after", acked: true, want: outcome{1, 1},
			wrap: func(w io.Writer) io.Writer { return &faultinject.CrashWriter{W: w, After: 3} }},
		{name: "kill-before", acked: false, want: outcome{0, 0},
			wrap: func(w io.Writer) io.Writer { return &faultinject.CrashWriter{W: w, After: 2} }},
		{name: "torn-in-report", acked: false, want: outcome{0, 0},
			wrap: func(w io.Writer) io.Writer { return &faultinject.TornWriter{W: w, At: 3, KeepBytes: 7} }},
		{name: "torn-in-grant", acked: false, want: outcome{0, 0},
			wrap: func(w io.Writer) io.Writer { return &faultinject.TornWriter{W: w, At: 3, KeepBytes: 1 << 20} }},
		{name: "power-loss-in-grant", acked: true, cut: 1, want: outcome{1, 0}},
		{name: "power-loss-in-report", acked: true, cut: 2, want: outcome{0, 0}},
	} {
		t.Run(tc.name+"/split=0", func(t *testing.T) {
			store, pat, want := starWorkload(t)
			dir := t.TempDir()
			clk := newFakeClock()
			c1, srv1 := testCluster(t, store, Config{
				LeaseTTL: 10 * time.Second, Parts: 4, Dir: dir, now: clk.Now, WALWrap: tc.wrap,
			})
			if _, err := c1.StartJob("j", JobSpec{Pattern: pat}); err != nil {
				t.Fatal(err)
			}
			first := leaseAs(t, srv1, store, "w1")
			rep := mineLease(t, store, first)
			rep.Worker, rep.LeaseNext = "w1", true
			var ack ReportAck
			code := postJSON(t, srv1, "/cluster/report", rep, &ack)
			if tc.acked != (code == http.StatusOK) {
				t.Fatalf("report: status %d, acked want %v", code, tc.acked)
			}
			if tc.acked && (ack.Lease == nil || ack.Lease.Task == first.Task || ack.Lease.Epoch != 1) {
				t.Fatalf("ack carries lease %+v, want a first grant of another task", ack.Lease)
			}
			crash(c1)
			if tc.cut > 0 {
				path := filepath.Join(dir, walFile)
				b := walFrameBounds(t, path)
				if len(b) != 5 {
					t.Fatalf("log holds %d frames, want admit, grant, report, grant", len(b)-1)
				}
				if err := os.Truncate(path, b[len(b)-1-tc.cut]+5); err != nil {
					t.Fatal(err)
				}
			}

			c2, srv2 := durableCluster(t, store, dir, clk)
			st, ok := c2.JobStatusByID("j")
			if !ok || st.State != "running" {
				t.Fatalf("job after replay: ok=%v %+v", ok, st)
			}
			got := outcome{merged: st.Done}
			for _, task := range st.Tasks {
				if task.ID != first.Task && task.Epoch > got.granted {
					got.granted = task.Epoch
				}
			}
			if got != tc.want {
				t.Fatalf("replay found %+v, want %+v", got, tc.want)
			}
			if got.merged == 1 && st.Ordered != rep.Ordered {
				t.Fatalf("replayed ordered=%d, want the merged report's %d", st.Ordered, rep.Ordered)
			}
			if st.Leased != 0 {
				t.Fatalf("%d tasks still leased after replay", st.Leased)
			}

			// The worker carries on against the restarted coordinator: a
			// report that was not acked is retried, a lease that was is
			// mined and reported. Either is salvaged at its epoch, or
			// fenced with the task redone — the total is exact.
			if !tc.acked {
				if code := postJSON(t, srv2, "/cluster/report", rep, &ack); code != http.StatusOK {
					t.Fatalf("retried report: status %d", code)
				}
			}
			if ack.Lease != nil {
				next := mineLease(t, store, ack.Lease)
				next.Worker = "w1"
				wantCode := http.StatusOK
				if tc.cut > 0 {
					// The disk lost a grant it had acked: as far as the
					// restarted coordinator knows that epoch was never
					// issued. (A merge lost the same way is not retried
					// by the worker; the task is simply redone.)
					wantCode = http.StatusGone
				}
				if code := postJSON(t, srv2, "/cluster/report", next, nil); code != wantCode {
					t.Fatalf("report of the lease that rode the ack: status %d, want %d", code, wantCode)
				}
			}
			drainJob(t, srv2, store, "w2")
			st, _ = c2.JobStatusByID("j")
			if st.State != "done" || st.Ordered != want {
				t.Fatalf("after the drill: state=%s ordered=%d, want done/%d", st.State, st.Ordered, want)
			}
		})
	}
}

// TestWALParentFilesReplay: wal.log and state.ohms written by the encoder of
// the commit before appends were batched (testdata/parent_pr15: one job done
// and folded into the snapshot, a second with one task merged and one leased
// in the log) replay unchanged, and the running job finishes exact.
func TestWALParentFilesReplay(t *testing.T) {
	store, _, want := starWorkload(t)
	dir := t.TempDir()
	for _, name := range []string{walFile, stateFile} {
		b, err := os.ReadFile(filepath.Join("testdata", "parent_pr15", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, srv := durableCluster(t, store, dir, newFakeClock())
	j1, ok := c.JobStatusByID("j1")
	if !ok || j1.State != "done" || j1.Ordered != want || j1.Unique != want/2 || j1.Done != 4 {
		t.Fatalf("j1 from the parent's snapshot: ok=%v %+v", ok, j1)
	}
	j2, ok := c.JobStatusByID("j2")
	if !ok || j2.State != "running" || j2.Done != 1 || j2.Ordered != 1560 || j2.Leased != 0 {
		t.Fatalf("j2 from the parent's log: ok=%v %+v", ok, j2)
	}
	if task := j2.Tasks[1]; task.Epoch != 1 || task.Worker != "w2" || task.State != taskPending {
		t.Fatalf("j2's in-flight lease after replay: %+v, want epoch 1 of w2, force-expired", task)
	}
	if st := c.Status(); st.ReplayedJobs != 2 || st.ResurrectedLeases != 1 {
		t.Fatalf("recovery counters: %+v", st)
	}
	drainJob(t, srv, store, "w3")
	j2, _ = c.JobStatusByID("j2")
	if j2.State != "done" || j2.Ordered != want {
		t.Fatalf("j2 finished on the new coordinator: %+v, want done/%d", j2, want)
	}
}

// TestWALFrameBytesPinned: a fresh wal.log holding one append of an admit
// and a grant is byte for byte what the coordinator wrote before the framing
// moved into internal/durable — header, length prefixes, JSON payloads and
// CRC trailers — so logs written by either replay on the other.
func TestWALFrameBytesPinned(t *testing.T) {
	const want = "574d484f01000000580000007b22736571223a312c2274223a2261646d6974222c226a6f62223a226a31222c2273706563223a7b227061747465726e223a223020313b20302032227d2c2267726170685f6670223a34322c226a6f625f736571223a317dbea593b6410000007b22736571223a322c2274223a226772616e74222c226a6f62223a226a31222c227461736b223a322c2265706f6368223a332c22776f726b6572223a227731227d6f2653bc"
	dir := t.TempDir()
	w, _, _, err := openWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(true, &walRecord{T: recAdmit, Job: "j1", Spec: &JobSpec{Pattern: "0 1; 0 2"}, GraphFP: 42, JobSeq: 1},
		&walRecord{T: recGrant, Job: "j1", Task: 2, Epoch: 3, Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != want {
		t.Fatalf("OHMW bytes changed:\n got %x\nwant %s", got, want)
	}
	w, _, recs, err := openWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if len(recs) != 2 || recs[0].Seq != 1 || recs[1].Worker != "w1" {
		t.Fatalf("pinned log reopens to %+v", recs)
	}
}

// TestReplayRefusesFrontierOfOlderPlan: a persisted running job whose task
// frontiers were stamped by a build that compiled another plan for the same
// spec — as every build before pairwise overlap sizes moved into candidate
// generation did — comes back failed, naming the wrong-plan refusal: its
// candidate lists were generated under the old plan's contract, and the new
// plan would count them without the size checks they were owed. No panic, no
// lease handed out, nothing counted.
func TestReplayRefusesFrontierOfOlderPlan(t *testing.T) {
	store, pat, _ := starWorkload(t)
	dir := t.TempDir()
	c1, _ := durableCluster(t, store, dir, newFakeClock())
	if _, err := c1.StartJob("j", JobSpec{Pattern: pat}); err != nil {
		t.Fatal(err)
	}
	c1.mu.Lock()
	c1.jobs["j"].planFP ^= 0x5a5a // what the older compiler's plan hashed to
	c1.compactLocked()
	c1.mu.Unlock()
	crash(c1)

	c2, srv := durableCluster(t, store, dir, newFakeClock())
	st, ok := c2.JobStatusByID("j")
	if !ok || st.State != "failed" || !strings.Contains(st.Error, "snapshot was written for a different plan") {
		t.Fatalf("replayed job: ok=%v state=%s error=%q, want failed with the wrong-plan refusal", ok, st.State, st.Error)
	}
	if st.Ordered != 0 || st.Done != 0 {
		t.Fatalf("replayed job counted: %+v", st)
	}
	if lease := leaseAs(t, srv, store, "w"); lease != nil {
		t.Fatalf("failed job handed out a lease: %+v", lease)
	}
}

// TestWALNoSpaceDegradesThenHeals: a full disk must shed new work with 503 +
// Retry-After (nothing may be accepted that can't be made durable), and the
// flusher's probe records must bring the coordinator back on their own once
// space frees up — no restart, no operator.
func TestWALNoSpaceDegradesThenHeals(t *testing.T) {
	store, pat, want := starWorkload(t)
	dir := t.TempDir()
	clk := newFakeClock()
	nw := &faultinject.NoSpaceWriter{}
	c, err := New(store, Config{
		LeaseTTL: 10 * time.Second, Parts: 4, Dir: dir, now: clk.Now,
		FlushEvery: 5 * time.Millisecond,
		WALWrap:    func(w io.Writer) io.Writer { nw.W = w; return nw },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	mux := http.NewServeMux()
	c.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	nw.Break()
	code := postJSON(t, srv, "/cluster/jobs", jobCreateRequest{ID: "j", JobSpec: JobSpec{Pattern: pat}}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("job create on full disk: status %d, want 503", code)
	}
	if !c.Degraded() {
		t.Fatal("coordinator not degraded after a failed append")
	}
	// Degraded rejections must carry Retry-After.
	resp, err := http.Post(srv.URL+"/cluster/jobs", "application/json",
		strings.NewReader(`{"id":"j","pattern":"0 1; 0 2"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("degraded shed: status=%d retry-after=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if st := c.Status(); !st.Degraded || st.DegradedRejects == 0 {
		t.Fatalf("status while degraded: degraded=%v rejects=%d", st.Degraded, st.DegradedRejects)
	}

	nw.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for c.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("coordinator did not self-heal after the disk came back")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := c.StartJob("j", JobSpec{Pattern: pat}); err != nil {
		t.Fatalf("start job after heal: %v", err)
	}
	drainJob(t, srv, store, "w1")
	st, _ := c.JobStatusByID("j")
	if st.State != "done" || st.Ordered != want {
		t.Fatalf("after heal: state=%s ordered=%d, want done/%d", st.State, st.Ordered, want)
	}
	if dropped := nw.Dropped(); dropped == 0 {
		t.Fatal("fault writer never saw a dropped write")
	}
}

// TestVariantRefused: "variant" is still a recognised key of a job spec and
// of a lease, but only to be checked. POST /cluster/jobs answers a baseline's
// name with a 422 saying where baselines run, as POST /query does; a worker handed a lease that
// names one (an older coordinator's) fails the task instead of mining it as
// OHMiner; and a WAL admit record carrying one — the frame below is written
// by hand, as a coordinator that still served baselines would have — replays
// into a failed job with that message, while the log loads and the
// coordinator keeps admitting work.
func TestVariantRefused(t *testing.T) {
	store, pat, _ := starWorkload(t)
	refusal := func(msg string) bool {
		return strings.Contains(msg, "HGMatch") && strings.Contains(msg, "ohmbench") && strings.Contains(msg, "ohminer -variant")
	}

	payload := fmt.Sprintf(`{"seq":1,"t":"admit","job":"old","spec":{"pattern":%q,"variant":"HGMatch"},"graph_fp":%d,"job_seq":1}`,
		pat, store.Hypergraph().Fingerprint())
	log := binary.LittleEndian.AppendUint32(nil, walMagic)
	log = binary.LittleEndian.AppendUint32(log, walVersion)
	log = binary.LittleEndian.AppendUint32(log, uint32(len(payload)))
	log = append(log, payload...)
	log = binary.LittleEndian.AppendUint32(log, durable.Checksum([]byte(payload)))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), log, 0o644); err != nil {
		t.Fatal(err)
	}
	c, srv := durableCluster(t, store, dir, newFakeClock())
	old, ok := c.JobStatusByID("old")
	if !ok || old.State != "failed" || !refusal(old.Error) || old.Parts != 0 {
		t.Fatalf("replayed HGMatch job: ok=%v %+v, want failed with the refusal and no tasks", ok, old)
	}

	for variant, want := range map[string]int{"": http.StatusAccepted, "OHMiner": http.StatusAccepted, "HGMatch": http.StatusUnprocessableEntity} {
		resp, err := http.Post(srv.URL+"/cluster/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"pattern":%q,"variant":%q}`, pat, variant)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want || (want == http.StatusUnprocessableEntity && !refusal(string(body))) {
			t.Errorf("POST /cluster/jobs variant=%q: status %d body %s, want %d", variant, resp.StatusCode, body, want)
		}
	}

	lease := leaseAs(t, srv, store, "w1")
	if lease == nil || lease.Variant != "" {
		t.Fatalf("lease %+v, want one that names no variant", lease)
	}
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "w1", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	lease.Variant = "HGMatch"
	if _, _, err := w.mine(context.Background(), lease); err == nil || !refusal(err.Error()) {
		t.Fatalf("worker mined a lease naming HGMatch: err=%v", err)
	}
}
