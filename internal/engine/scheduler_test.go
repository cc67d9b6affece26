package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"ohminer/internal/baseline"
	"ohminer/internal/checkpoint"
	"ohminer/internal/dal"
	"ohminer/internal/hypergraph"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// skewedInput builds the adversarial case for first-level-only scheduling: a
// chain pattern pe0–pe1–pe2 whose first step has exactly ONE data candidate
// (a unique degree-5 hub), so the old scheduler clamps every run to one
// worker. All fan² embeddings hang off that single first-edge subtree; only
// subtree stealing below the root can parallelize them.
//
// Data hypergraph:
//
//	hub  = {0..4}            the only degree-5 hyperedge
//	A_i  = {4, 10+i}         fan edges sharing hub vertex 4
//	B_ij = {10+i, base+i*fan+j}  second-level fan per A_i, disjoint from hub
func skewedInput(t *testing.T, fan int) (*dal.Store, *oig.Plan) {
	t.Helper()
	edges := [][]uint32{{0, 1, 2, 3, 4}}
	base := uint32(1000)
	for i := 0; i < fan; i++ {
		edges = append(edges, []uint32{4, uint32(10 + i)})
	}
	for i := 0; i < fan; i++ {
		for j := 0; j < fan; j++ {
			edges = append(edges, []uint32{uint32(10 + i), base + uint32(i*fan+j)})
		}
	}
	h := hypergraph.MustBuild(int(base)+fan*fan, edges, nil)
	p := pattern.MustNew([][]uint32{{0, 1, 2, 3, 4}, {4, 5}, {5, 6}}, nil)
	// Pin the matching order to pattern index order so pe0 (the hub) is the
	// first step whatever order the cost model would choose.
	plan, err := oig.CompileOrdered(p, oig.ModeMerged, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	return dal.Build(h), plan
}

// TestDequeSemantics pins the deque contract: owner pops LIFO, thieves steal
// FIFO, a full deque rejects pushes, and every hand-off is a copy.
func TestDequeSemantics(t *testing.T) {
	var d deque
	src := []uint32{1, 2, 3}
	if !d.push(1, []uint32{9}, src) {
		t.Fatal("push into empty deque failed")
	}
	// The deque must have copied: mutating the source after push is safe.
	src[0] = 77
	if !d.push(2, []uint32{9, 8}, []uint32{4, 5}) {
		t.Fatal("second push failed")
	}

	var tk checkpoint.Task
	if !d.steal(&tk) || tk.Depth != 1 || tk.Cands[0] != 1 {
		t.Fatalf("steal got depth=%d cands=%v, want the oldest task (1, [1 2 3])", tk.Depth, tk.Cands)
	}
	if !d.pop(&tk) || tk.Depth != 2 || len(tk.Prefix) != 2 {
		t.Fatalf("pop got depth=%d prefix=%v, want the newest task", tk.Depth, tk.Prefix)
	}
	if d.pop(&tk) || d.steal(&tk) {
		t.Fatal("empty deque yielded a task")
	}

	for i := 0; i < dequeCap; i++ {
		if !d.push(0, nil, []uint32{uint32(i)}) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if d.push(0, nil, []uint32{99}) {
		t.Fatal("push into full deque succeeded")
	}
	// FIFO steal order across the whole ring.
	for i := 0; i < dequeCap; i++ {
		if !d.steal(&tk) || tk.Cands[0] != uint32(i) {
			t.Fatalf("steal %d got %v", i, tk.Cands)
		}
	}
}

// TestStealingDeterministic is the acceptance criterion for the scheduler:
// on the skewed input (one first-level candidate), Result.Ordered must be
// identical for 1, 4, and 16 workers with stealing active, and must match
// the paper's first-level-only scheduler (internal/baseline's driver). Run
// under -race this also checks the publish/steal hand-off for data races.
func TestStealingDeterministic(t *testing.T) {
	setSplit(t, defaultSplitDepth, 2)
	store, plan := skewedInput(t, 24)
	want := uint64(24 * 24)

	first, err := baseline.MineWithPlan(context.Background(), store, plan, baseline.Options{Workers: 4})
	if err != nil || first.Ordered != want {
		t.Fatalf("first-level: Ordered=%d err=%v, want %d", first.Ordered, err, want)
	}
	for _, workers := range []int{1, 4, 16} {
		res, err := MineWithPlanContext(context.Background(), store, plan, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Ordered != want || res.Truncated {
			t.Errorf("workers=%d: Ordered=%d truncated=%v, want %d/false",
				workers, res.Ordered, res.Truncated, want)
		}
		// Publication is deterministic (it depends only on the split
		// policy, not on timing); steals are not — on a single-CPU host
		// the owner can drain its own deque before a thief runs, so the
		// end-to-end steal check lives in TestStealOccurs.
		if res.Stats.Publishes == 0 {
			t.Errorf("workers=%d: no publications on the skewed input", workers)
		}
	}
}

// TestStealOccurs checks the full publish→steal→resume path end to end on
// the skewed input. Whether a steal happens in any single run is a scheduling
// race (on one CPU the owner can pop every task it published before a thief
// is ever scheduled), so the run yields after each embedding to hand thieves
// the CPU and retries a bounded number of times; the counts of every attempt
// are still verified.
func TestStealOccurs(t *testing.T) {
	setSplit(t, defaultSplitDepth, 2)
	store, plan := skewedInput(t, 24)
	want := uint64(24 * 24)
	for attempt := 0; attempt < 50; attempt++ {
		res, err := MineWithPlanContext(context.Background(), store, plan, Options{
			Workers:     8,
			OnEmbedding: func([]uint32) { runtime.Gosched() },
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ordered != want {
			t.Fatalf("attempt %d: Ordered=%d want %d", attempt, res.Ordered, want)
		}
		if res.Stats.Steals > 0 {
			return
		}
	}
	t.Fatal("no steal observed in 50 runs on the skewed input with 8 workers")
}

// TestStealingMatchesRandom cross-checks stealing against the first-level
// scheduler (internal/baseline's driver) on random inputs, with an aggressive split threshold so
// publication happens even on small candidate lists.
func TestStealingMatchesRandom(t *testing.T) {
	setSplit(t, 3, 1)
	rng := rand.New(rand.NewSource(77))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		h := randHypergraph(rng, trial%2 == 1)
		store := dal.Build(h)
		p, err := pattern.Sample(h, 2+rng.Intn(3), 2, 30, rng)
		if err != nil {
			continue
		}
		first, err := baseline.Mine(context.Background(), store, p, baseline.Options{Workers: 4})
		if err != nil {
			t.Fatalf("trial %d first-level: %v", trial, err)
		}
		steal, err := Mine(store, p, Options{Workers: 8})
		if err != nil {
			t.Fatalf("trial %d steal: %v", trial, err)
		}
		if steal.Ordered != first.Ordered || steal.Unique != first.Unique {
			t.Errorf("trial %d: stealing ordered/unique = %d/%d, first-level %d/%d",
				trial, steal.Ordered, steal.Unique, first.Ordered, first.Unique)
		}
	}
}

// TestLimitUnderStealing checks cooperative cancellation through the shared
// stop flag: a Limit must truncate the run even when the embeddings are
// found by workers mining stolen subtrees.
func TestLimitUnderStealing(t *testing.T) {
	setSplit(t, defaultSplitDepth, 2)
	store, plan := skewedInput(t, 24)
	total := uint64(24 * 24)
	for _, workers := range []int{1, 8} {
		res, err := MineWithPlanContext(context.Background(), store, plan, Options{
			Workers: workers, Limit: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated {
			t.Errorf("workers=%d: limit run not marked truncated", workers)
		}
		if res.Ordered < 10 {
			t.Errorf("workers=%d: Ordered=%d below limit 10", workers, res.Ordered)
		}
		if res.Ordered == total {
			t.Errorf("workers=%d: limit did not stop the run (Ordered=%d)", workers, res.Ordered)
		}
	}
}

// TestDeadlineUnderStealing checks that a context deadline stops workers
// mid-subtree through the shared stop flag. The OnEmbedding callback
// throttles emission so the run cannot finish before the deadline.
func TestDeadlineUnderStealing(t *testing.T) {
	setSplit(t, defaultSplitDepth, 2)
	store, plan := skewedInput(t, 24)
	total := uint64(24 * 24)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := MineWithPlanContext(ctx, store, plan, Options{
		Workers:     8,
		OnEmbedding: func([]uint32) { time.Sleep(time.Millisecond) },
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want context.DeadlineExceeded", err)
	}
	if res.Stats.Publishes == 0 {
		t.Error("no publications on the skewed input")
	}
	if !res.Truncated {
		t.Error("deadline run not marked truncated")
	}
	if res.Ordered >= total {
		t.Errorf("deadline did not stop the run (Ordered=%d of %d)", res.Ordered, total)
	}
}

// setSplit makes every run of the calling test publish the untouched half of
// a candidate range at positions below depth (clamped as splitParams does)
// once 2·threshold candidates remain, then restores the defaults. Engine
// tests do not run in parallel, so the variables are the test's own.
func setSplit(t *testing.T, depth, threshold int) {
	t.Helper()
	publishDepth, publishThreshold = depth, threshold
	t.Cleanup(func() { publishDepth, publishThreshold = defaultSplitDepth, defaultSplitThreshold })
}

// TestSchedulerSeed pins how a fresh run's first candidates enter a round:
// partition splits them into at most one contiguous depth-0 task per worker,
// seedTasks queues one per deque (copying) and pending counts the tasks.
func TestSchedulerSeed(t *testing.T) {
	// 5 candidates over 4 workers: ceil(5/4) = 2 per chunk → 3 chunks.
	first := []uint32{1, 2, 3, 4, 5}
	s := newScheduler(4)
	s.seedTasks(partition(first, 4))
	if got := s.pending.Load(); got != 3 {
		t.Fatalf("pending=%d after seeding 5 candidates over 4 workers, want 3 chunks", got)
	}
	first[0] = 77 // the deques hold copies
	var seen []uint32
	var tk checkpoint.Task
	for i := range s.deques {
		for s.deques[i].pop(&tk) {
			if tk.Depth != 0 || len(tk.Prefix) != 0 {
				t.Fatalf("seeded task depth=%d prefix=%v", tk.Depth, tk.Prefix)
			}
			seen = append(seen, tk.Cands...)
		}
	}
	if !slices.Equal(seen, []uint32{1, 2, 3, 4, 5}) {
		t.Fatalf("seeded candidates %v, want 1…5 in order", seen)
	}

	// More workers than candidates: one single-candidate task each.
	s = newScheduler(16)
	s.seedTasks(partition([]uint32{7, 8}, 16))
	if got := s.pending.Load(); got != 2 {
		t.Fatalf("pending=%d after seeding 2 candidates over 16 workers", got)
	}
	// The views are capped: appending to one task cannot overwrite the next.
	tasks := partition([]uint32{1, 2, 3, 4}, 2)
	_ = append(tasks[0].Cands, 99)
	if tasks[1].Cands[0] != 3 {
		t.Fatalf("append to task 0 reached task 1: %v", tasks[1].Cands)
	}
}
