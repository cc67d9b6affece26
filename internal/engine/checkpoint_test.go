package engine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ohminer/internal/bruteforce"
	"ohminer/internal/checkpoint"
	"ohminer/internal/dal"
	"ohminer/internal/hypergraph"
	"ohminer/internal/pattern"
)

// memSink captures encoded snapshots in memory, exercising the full
// serialization path without disk. afterWrite (when set) runs after each
// successful write with the running write count — tests use it to cancel
// the run at the k-th checkpoint, simulating a crash.
type memSink struct {
	mu         sync.Mutex
	data       [][]byte
	fail       error
	afterWrite func(n int)
}

func (ms *memSink) WriteSnapshot(s *checkpoint.Snapshot) (int64, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.fail != nil {
		return 0, ms.fail
	}
	b, err := s.Marshal()
	if err != nil {
		return 0, err
	}
	ms.data = append(ms.data, b)
	if ms.afterWrite != nil {
		ms.afterWrite(len(ms.data))
	}
	return int64(len(b)), nil
}

func (ms *memSink) writes() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return len(ms.data)
}

func (ms *memSink) latest(t *testing.T) *checkpoint.Snapshot {
	t.Helper()
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if len(ms.data) == 0 {
		t.Fatal("no snapshot written")
	}
	s, err := checkpoint.Decode(bytes.NewReader(ms.data[len(ms.data)-1]))
	if err != nil {
		t.Fatalf("decode captured snapshot: %v", err)
	}
	return s
}

// slowWorkload returns a workload with enough embeddings that a run
// throttled by slowEmit spans many checkpoint periods: a 90-edge star whose
// edges pairwise overlap in exactly the hub vertex, so the 2-edge pattern
// sharing one vertex has 90*89 ordered embeddings (~160ms throttled — wide
// margin over the 3 checkpoint rounds the kill tests need even on one CPU,
// where timer-goroutine starvation stretches each quiesce round to ~20ms).
func slowWorkload(t *testing.T) (*dal.Store, *pattern.Pattern, uint64) {
	t.Helper()
	const n = 90
	edges := make([][]uint32, n)
	for i := range edges {
		edges[i] = []uint32{0, uint32(i + 1)}
	}
	h := hypergraph.MustBuild(n+1, edges, nil)
	p := pattern.MustNew([][]uint32{{0, 1}, {0, 2}}, nil)
	want := bruteforce.Count(h, p)
	if want != n*(n-1) {
		t.Fatalf("star workload: brute force %d, want %d", want, n*(n-1))
	}
	return dal.Build(h), p, want
}

// slowEmit burns ~20µs per embedding (busy-wait: time.Sleep rounds up to
// scheduler granularity, which would inflate the test tenfold).
func slowEmit([]uint32) {
	end := time.Now().Add(20 * time.Microsecond)
	for time.Now().Before(end) {
	}
}

// TestCheckpointedRunExactCount proves that periodic quiescing is
// count-neutral: a run interrupted by dozens of checkpoint rounds reports
// exactly the uninterrupted total.
func TestCheckpointedRunExactCount(t *testing.T) {
	store, p, want := slowWorkload(t)
	sink := &memSink{}
	res, err := Mine(store, p, Options{
		Workers:         3,
		Checkpoint:      sink,
		CheckpointEvery: 2 * time.Millisecond,
		OnEmbedding:     slowEmit,
	})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if res.Ordered != want {
		t.Errorf("Ordered=%d want %d", res.Ordered, want)
	}
	if res.Truncated {
		t.Error("completed run reported Truncated")
	}
	if sink.writes() == 0 {
		t.Errorf("no checkpoints written during a %s run", res.Elapsed)
	}
	if res.Stats.Checkpoints != uint64(sink.writes()) {
		t.Errorf("Stats.Checkpoints=%d, sink saw %d", res.Stats.Checkpoints, sink.writes())
	}
	if res.Stats.CheckpointBytes == 0 {
		t.Error("Stats.CheckpointBytes=0")
	}
}

// TestCrashResumeExactCount kills a run at the k-th checkpoint (context
// cancellation, the SIGTERM path) and resumes from the captured snapshot:
// the resumed total must equal the uninterrupted count exactly — embeddings
// counted before the kill are neither lost nor recounted. Several kill
// points.
func TestCrashResumeExactCount(t *testing.T) {
	store, p, want := slowWorkload(t)
	for _, killAt := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		sink := &memSink{}
		sink.afterWrite = func(n int) {
			if n == killAt {
				cancel()
			}
		}
		opts := Options{
			Workers:         3,
			Checkpoint:      sink,
			CheckpointEvery: 2 * time.Millisecond,
			OnEmbedding:     slowEmit,
		}
		res1, err := MineContext(ctx, store, p, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("killAt=%d: err=%v (run finished in %d checkpoints before the kill?)",
				killAt, err, sink.writes())
		}
		if !res1.Truncated {
			t.Errorf("killAt=%d: killed run not Truncated", killAt)
		}
		snap := sink.latest(t)
		if snap.Ordered != res1.Ordered {
			t.Errorf("killAt=%d: final snapshot Ordered=%d, result says %d",
				killAt, snap.Ordered, res1.Ordered)
		}
		if res1.Ordered >= want {
			t.Fatalf("killAt=%d: kill came too late to test resume (%d >= %d)",
				killAt, res1.Ordered, want)
		}

		res2, err := ResumeFromCheckpoint(context.Background(), store, p, snap, opts)
		if err != nil {
			t.Fatalf("killAt=%d: resume: %v", killAt, err)
		}
		if res2.Ordered != want {
			t.Errorf("killAt=%d: resumed total %d, want %d (snapshot had %d)",
				killAt, res2.Ordered, want, snap.Ordered)
		}
		if res2.Truncated {
			t.Errorf("killAt=%d: completed resume reported Truncated", killAt)
		}

		// Resume is idempotent: replaying the same snapshot must land on
		// the same total (the snapshot is read-only to the engine).
		res3, err := ResumeFromCheckpoint(context.Background(), store, p, sink.latest(t), opts)
		if err != nil || res3.Ordered != want {
			t.Errorf("killAt=%d: second resume got (%d, %v), want (%d, nil)",
				killAt, res3.Ordered, err, want)
		}
	}
}

// TestCheckpointSinkErrorsNonFatal proves a failing sink (disk full) never
// kills the run: the count stays exact and the failures are only counted.
func TestCheckpointSinkErrorsNonFatal(t *testing.T) {
	store, p, want := slowWorkload(t)
	sink := &memSink{fail: errors.New("no space left on device")}
	res, err := Mine(store, p, Options{
		Workers:         3,
		Checkpoint:      sink,
		CheckpointEvery: 2 * time.Millisecond,
		OnEmbedding:     slowEmit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ordered != want {
		t.Errorf("Ordered=%d want %d", res.Ordered, want)
	}
	if res.Truncated {
		t.Error("run with failing sink reported Truncated")
	}
	if res.Stats.CheckpointErrors == 0 {
		t.Error("failing sink produced no CheckpointErrors")
	}
	if res.Stats.Checkpoints != 0 {
		t.Errorf("failing sink counted %d successful checkpoints", res.Stats.Checkpoints)
	}
}

// TestResumeRejectsMismatchedSnapshot drives every validation rejection:
// wrong plan, wrong graph, and structurally absurd frontier tasks.
func TestResumeRejectsMismatchedSnapshot(t *testing.T) {
	store, p := fig1(t)
	res, err := Mine(store, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan
	goodFP := planFingerprint(plan)
	graphFP := store.Hypergraph().Fingerprint()
	base := func() *checkpoint.Snapshot {
		return &checkpoint.Snapshot{
			Seq: 1, PlanFP: goodFP, GraphFP: graphFP,
			Frontier: []checkpoint.Task{{Depth: 1, Prefix: []uint32{0}, Cands: []uint32{1, 2}}},
		}
	}
	cases := []struct {
		name    string
		mutate  func(*checkpoint.Snapshot)
		wantSub string
	}{
		{"wrong plan", func(s *checkpoint.Snapshot) { s.PlanFP ^= 1 }, "different plan"},
		{"wrong graph", func(s *checkpoint.Snapshot) { s.GraphFP ^= 1 }, "different data hypergraph"},
		{"depth out of range", func(s *checkpoint.Snapshot) { s.Frontier[0].Depth = 99; s.Frontier[0].Prefix = make([]uint32, 99) }, "exceeds"},
		{"prefix length mismatch", func(s *checkpoint.Snapshot) { s.Frontier[0].Prefix = nil }, "prefix for depth"},
		{"prefix id out of range", func(s *checkpoint.Snapshot) { s.Frontier[0].Prefix[0] = 1 << 20 }, "binds hyperedge"},
		{"candidate id out of range", func(s *checkpoint.Snapshot) { s.Frontier[0].Cands[0] = 1 << 20 }, "lists candidate"},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(s)
		_, err := ResumeWithPlanContext(context.Background(), store, plan, s, Options{Workers: 1})
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !bytes.Contains([]byte(err.Error()), []byte(tc.wantSub)) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
	if _, err := ResumeWithPlanContext(context.Background(), store, plan, nil, Options{Workers: 1}); err == nil {
		t.Error("nil snapshot accepted")
	}
}

// TestResumeEmptyFrontier: a snapshot whose frontier drained to nothing
// resumes to an immediately complete run carrying the saved counters.
func TestResumeEmptyFrontier(t *testing.T) {
	store, p := fig1(t)
	res, err := Mine(store, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := &checkpoint.Snapshot{
		Seq:     7,
		PlanFP:  planFingerprint(res.Plan),
		GraphFP: store.Hypergraph().Fingerprint(),
		Ordered: 42,
		Stats:   packStats(Stats{Candidates: 9, Checkpoints: 7}),
	}
	got, err := ResumeFromCheckpoint(context.Background(), store, p, snap, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Ordered != 42 || got.Truncated {
		t.Errorf("got Ordered=%d Truncated=%v, want 42/false", got.Ordered, got.Truncated)
	}
	if got.Stats.Candidates != 9 || got.Stats.Checkpoints != 7 {
		t.Errorf("base stats not carried: %+v", got.Stats)
	}
}

// starWorkload is what the testdata snapshots were cut on (see
// internal/tools/goldengen): the 3-star pattern over a 40-edge star with a
// two-vertex hub.
func starWorkload() (*dal.Store, *pattern.Pattern, uint64) {
	const n = 40
	edges := make([][]uint32, n)
	for i := range edges {
		edges[i] = []uint32{0, 1, uint32(i + 2)}
	}
	store := dal.Build(hypergraph.MustBuild(n+2, edges, nil))
	return store, pattern.MustNew([][]uint32{{0, 1, 2}, {0, 1, 3}, {0, 1, 4}}, nil), n * (n - 1) * (n - 2)
}

// readGolden loads testdata/file and requires today's encoder to write the
// decoded snapshot back byte for byte: the OHMC encoding does not drift.
func readGolden(t *testing.T, file string) *checkpoint.Snapshot {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := snap.Marshal(); !bytes.Equal(b, raw) {
		t.Fatalf("%s: OHMC bytes changed: %d bytes re-encoded, %d in the golden file", file, len(b), len(raw))
	}
	return snap
}

// TestParentSnapshotResumes loads testdata/parent_pr28.ohmc, cut by the
// encoder of the commit whose compiler first emitted conditions (`make golden
// TAG=pr28`): an instrumented run stopped by Limit part-way, so the frontier
// holds remainders at every depth. The file must decode under the unchanged
// checkpoint.Version, validate against today's plan — which pins
// oig.Fingerprint from that commit on — and resume to the exact total.
func TestParentSnapshotResumes(t *testing.T) {
	store, p, want := starWorkload()
	snap := readGolden(t, "parent_pr28.ohmc")
	deepest := 0
	for _, task := range snap.Frontier {
		deepest = max(deepest, int(task.Depth))
	}
	if checkpoint.Version != 1 || snap.Ordered == 0 || deepest != 2 {
		t.Fatalf("version %d, Ordered=%d, deepest frontier task %d: not the interrupted v1 run this test needs",
			checkpoint.Version, snap.Ordered, deepest)
	}
	plan, err := CompilePlan(store, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSnapshot(store, plan, snap); err != nil {
		t.Fatalf("parent snapshot refused: %v", err)
	}
	res, err := ResumeWithPlanContext(context.Background(), store, plan, snap, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ordered != want || res.Unique != want/6 || res.Truncated {
		t.Fatalf("resumed to Ordered=%d Unique=%d truncated=%v, want %d/%d/false", res.Ordered, res.Unique, res.Truncated, want, want/6)
	}
	if st := unpackStats(snap.Stats); res.Stats.Candidates < st.Candidates || res.Stats.Checkpoints != st.Checkpoints {
		t.Errorf("resume dropped the snapshot's live counters: %+v, snapshot had %+v", res.Stats, st)
	}
}

// chainWorkload is what testdata/parent_pr30_chain.ohmc was cut on (see
// internal/tools/goldengen): the path of three 2-vertex hyperedges over the
// complete graph on 12 vertices, which has 12·11·10·9 ordered embeddings.
func chainWorkload() (*dal.Store, *pattern.Pattern, uint64) {
	const n = 12
	return completeGraph(n), pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil), n * (n - 1) * (n - 2) * (n - 3)
}

// TestParentChainSnapshotResumes loads testdata/parent_pr30_chain.ohmc (`make
// golden TAG=pr30`, cut once CompilePlan chose the matching order by cost): its
// frontier holds last-position ranges, which a worker
// explores as they are, so every one of their candidates must already avoid
// the bindings at its Disc positions. The file must validate and resume to
// the exact total.
func TestParentChainSnapshotResumes(t *testing.T) {
	store, p, want := chainWorkload()
	snap := readGolden(t, "parent_pr30_chain.ohmc")
	plan, err := CompilePlan(store, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := len(plan.Steps) - 1
	ranges, unfiltered := 0, 0
	for _, task := range snap.Frontier {
		if int(task.Depth) != last {
			continue
		}
		ranges++
		for _, c := range task.Cands {
			for _, j := range plan.Steps[last].Disc {
				if store.Connected(c, task.Prefix[j]) {
					unfiltered++
				}
			}
		}
	}
	if checkpoint.Version != 1 || snap.Ordered == 0 || len(plan.Steps[last].Disc) == 0 || ranges == 0 || unfiltered != 0 {
		t.Fatalf("version %d, Ordered=%d, last step disc=%v, %d last-position ranges with %d candidates overlapping a disconnected binding: not the filtered, interrupted v1 chain run this test needs",
			checkpoint.Version, snap.Ordered, plan.Steps[last].Disc, ranges, unfiltered)
	}
	if err := ValidateSnapshot(store, plan, snap); err != nil {
		t.Fatalf("parent snapshot refused: %v", err)
	}
	for _, workers := range []int{1, 2} {
		res, err := ResumeWithPlanContext(context.Background(), store, plan, snap, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ordered != want || res.Unique != want/2 || res.Truncated {
			t.Fatalf("workers=%d: resumed to Ordered=%d Unique=%d truncated=%v, want %d/%d/false", workers, res.Ordered, res.Unique, res.Truncated, want, want/2)
		}
	}
}

// cliqueWorkload is what testdata/parent_pr28_clique.ohmc was cut on (see
// internal/tools/goldengen): the 4-clique over a block of 36 hyperedges that
// share a core of 64 vertices, any four of which are an embedding.
func cliqueWorkload() (*dal.Store, *pattern.Pattern, uint64) {
	const core, k = 64, 36
	edges := make([][]uint32, k)
	for i := range edges {
		for v := uint32(0); v < core; v++ {
			edges[i] = append(edges[i], v)
		}
		edges[i] = append(edges[i], core+uint32(i))
	}
	return dal.Build(hypergraph.MustBuild(core+k, edges, nil)), pattern.MustNew(edges[:4], nil), k * (k - 1) * (k - 2) * (k - 3)
}

// TestParentCliqueSnapshotResumes loads testdata/parent_pr28_clique.ohmc
// (`make golden TAG=pr28`): its remainders at depths 1–3 are filtered lists
// that a resumed worker explores on caches it never built. The file must
// validate and resume to the closed form.
func TestParentCliqueSnapshotResumes(t *testing.T) {
	setSplit(t, defaultSplitDepth, 1)
	store, p, want := cliqueWorkload()
	snap := readGolden(t, "parent_pr28_clique.ohmc")
	depths := map[uint32]bool{}
	for _, task := range snap.Frontier {
		depths[task.Depth] = true
	}
	if checkpoint.Version != 1 || snap.Ordered == 0 || !depths[1] || !depths[2] || !depths[3] {
		t.Fatalf("version %d, Ordered=%d, remainders at depths %v: not the interrupted v1 4-clique run this test needs", checkpoint.Version, snap.Ordered, depths)
	}
	plan, err := CompilePlan(store, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSnapshot(store, plan, snap); err != nil {
		t.Fatalf("parent snapshot refused: %v", err)
	}
	for _, workers := range []int{1, 2} {
		res, err := ResumeWithPlanContext(context.Background(), store, plan, snap, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ordered != want || res.Unique != want/24 || res.Truncated {
			t.Fatalf("workers=%d: resumed to Ordered=%d Unique=%d truncated=%v, want %d/%d/false", workers, res.Ordered, res.Unique, res.Truncated, want, want/24)
		}
	}
}

// TestOlderSnapshotRefused: snapshots cut under an older plan of the same
// query — parent_pr16.ohmc before pairwise overlap sizes moved into
// generation, the parent_pr21 files before disconnection did,
// parent_pr25_clique.ohmc by the engine that interpreted ops, and
// parent_pr28_chain.ohmc in the structural matching order, which the order
// chosen by cost on the complete graph replaced — hold candidate ranges
// today's plan would not have generated or kept. Each must
// be refused as written for a different plan (ErrWrongPlan) — by
// ValidateSnapshot and by both resume entry points — never resumed to a
// count.
func TestOlderSnapshotRefused(t *testing.T) {
	for _, c := range []struct {
		file     string
		workload func() (*dal.Store, *pattern.Pattern, uint64)
	}{
		{"parent_pr16.ohmc", starWorkload},
		{"parent_pr21.ohmc", starWorkload},
		{"parent_pr21_chain.ohmc", chainWorkload},
		{"parent_pr25_clique.ohmc", cliqueWorkload},
		{"parent_pr28_chain.ohmc", chainWorkload},
	} {
		store, p, _ := c.workload()
		snap := readGolden(t, c.file)
		if snap.GraphFP != store.Hypergraph().Fingerprint() || len(snap.Frontier) == 0 {
			t.Fatalf("%s: not its workload's interrupted run: graph %#x, %d frontier tasks", c.file, snap.GraphFP, len(snap.Frontier))
		}
		plan, err := CompilePlan(store, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateSnapshot(store, plan, snap); !errors.Is(err, ErrWrongPlan) {
			t.Fatalf("%s: ValidateSnapshot: %v, want ErrWrongPlan", c.file, err)
		}
		if res, err := ResumeWithPlanContext(context.Background(), store, plan, snap, Options{Workers: 1}); !errors.Is(err, ErrWrongPlan) || res.Ordered != 0 {
			t.Fatalf("%s: ResumeWithPlanContext: Ordered=%d err=%v, want 0 and ErrWrongPlan", c.file, res.Ordered, err)
		}
		if res, err := ResumeFromCheckpoint(context.Background(), store, p, snap, Options{Workers: 1}); !errors.Is(err, ErrWrongPlan) || res.Ordered != 0 {
			t.Fatalf("%s: ResumeFromCheckpoint: Ordered=%d err=%v, want 0 and ErrWrongPlan", c.file, res.Ordered, err)
		}
	}
}

// TestStatsPackRoundTrip pins the opaque stats packing the snapshot format
// carries.
func TestStatsPackRoundTrip(t *testing.T) {
	want := Stats{
		Candidates: 1, Embeddings: 2, SetOps: 3,
		GenTime: 8 * time.Second, ValTime: 9 * time.Second,
		Publishes: 10, Steals: 11, IdleSpins: 12,
		Checkpoints: 13, CheckpointBytes: 14, CheckpointErrors: 15,
	}
	if got := unpackStats(packStats(want)); got != want {
		t.Errorf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
	// Slots 3-6 carried the HGMatch redundancy counters: written as zeros,
	// ignored when a snapshot of an older build has them set.
	packed := packStats(want)
	for i := 3; i <= 6; i++ {
		if packed[i] != 0 {
			t.Errorf("retired slot %d packed as %d", i, packed[i])
		}
		packed[i] = 1000 + uint64(i)
	}
	if got := unpackStats(packed); got != want {
		t.Errorf("retired slots leaked into Stats:\nwant %+v\ngot  %+v", want, got)
	}
	// Older (shorter) and newer (longer) packed slices must not panic.
	if got := unpackStats(packStats(want)[:5]); got.SetOps != 3 || got.Steals != 0 {
		t.Errorf("short unpack: %+v", got)
	}
	if got := unpackStats(append(packStats(want), 99, 98)); got != want {
		t.Errorf("long unpack: %+v", got)
	}
}
