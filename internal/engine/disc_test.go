package engine

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ohminer/internal/dal"
	"ohminer/internal/hypergraph"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// This file covers the two places where the engine no longer looks at a
// candidate at a time: Step.Disc, which candidate generation enforces by
// marking the disconnected bindings' neighbour groups once per binding
// (discMark) and filtering each list against that mark (dropDisc), and the
// last position of a plan that has nothing to test there, which is counted
// (countLeaf). internal/baseline still probes dal.Connected per
// candidate and iterates every leaf, so it is the oracle next to brute force.

// discShapes are patterns whose plans carry Step.Disc: paths of three to five
// hyperedges, stars whose tail hangs off one arm and has to stay clear of the
// others, and a spider — disjoint legs on a 3-vertex body — where the legs
// bound earlier overlap neither each other nor themselves, so generation
// offers them again for the last leg. In the 4-cycle the last hyperedge
// must miss the second, which lies in the group the last one is drawn from
// around the third but not in the list it is intersected with: a counted
// leaf takes a bound hyperedge out only when the list holds it. The shapes
// were drawn for the plans of the matching order each one lists, which the
// order Mine chooses by cost need not be.
var discShapes = []struct {
	name  string
	edges [][]uint32
	order []int
}{
	{"path3", [][]uint32{{0, 1}, {1, 2}, {2, 3}}, []int{1, 0, 2}},
	{"path4", [][]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, []int{1, 0, 2, 3}},
	{"path5", [][]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}, []int{1, 0, 2, 3, 4}},
	{"path3-wide", [][]uint32{{0, 1, 2}, {2, 3}, {3, 4, 5}}, []int{1, 0, 2}},
	{"star-tail", [][]uint32{{0, 1}, {0, 2}, {0, 3}, {3, 4}}, []int{2, 0, 1, 3}},
	{"star-tail-wide", [][]uint32{{0, 1, 2}, {0, 3}, {0, 4}, {4, 5, 6}}, []int{2, 0, 1, 3}},
	{"spider", [][]uint32{{1, 2, 3}, {0, 1}, {2, 5}, {3, 4}}, []int{0, 1, 2, 3}},
	{"cycle4", [][]uint32{{0, 1, 2}, {0, 1, 3}, {3, 4, 5}, {2, 4, 6}}, []int{0, 1, 2, 3}},
}

// mineOrdered mines p in the given matching order.
func mineOrdered(store *dal.Store, p *pattern.Pattern, order []int, opts Options) (Result, error) {
	plan, err := CompilePlanOrdered(p, order, opts)
	if err != nil {
		return Result{}, err
	}
	return MineWithPlanContext(context.Background(), store, plan, opts)
}

// completeGraph returns K_n as a hypergraph of 2-vertex hyperedges, numbered
// in lexicographic order of their endpoints.
func completeGraph(n uint32) *dal.Store {
	var edges [][]uint32
	for a := uint32(0); a < n; a++ {
		for b := a + 1; b < n; b++ {
			edges = append(edges, []uint32{a, b})
		}
	}
	return dal.Build(hypergraph.MustBuild(int(n), edges, nil))
}

// randGraphLike draws distinct 2- and 3-vertex hyperedges over nv vertices:
// dense enough that paths and stars occur, and that much of what overlaps one
// bound hyperedge overlaps another one too.
func randGraphLike(rng *rand.Rand, nv, pairs, triples int) *hypergraph.Hypergraph {
	seen := map[[3]uint32]bool{}
	var edges [][]uint32
	for len(edges) < pairs+triples {
		size := 2
		if len(edges) >= pairs {
			size = 3
		}
		e := make([]uint32, size)
		for i, v := range rng.Perm(nv)[:size] {
			e[i] = uint32(v)
		}
		slices.Sort(e)
		key := [3]uint32{^uint32(0), ^uint32(0), ^uint32(0)}
		copy(key[:], e)
		if !seen[key] {
			seen[key] = true
			edges = append(edges, e)
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return hypergraph.MustBuild(nv, edges, nil)
}

// TestDiscShapesDifferential: engine = baseline = brute force on the Disc
// shapes over random graph-like hypergraphs, restricted and not, on 1, 2 and
// 4 workers that publish at every depth they may (setSplit), so the
// ranges popped and stolen at a middle Disc depth go through runTask's filter
// a second time.
func TestDiscShapesDifferential(t *testing.T) {
	setSplit(t, math.MaxInt, 1)
	rng := rand.New(rand.NewSource(2207))
	trials := 5
	if testing.Short() {
		trials = 2
	}
	var middleDisc, doubleDisc, counted, published bool
	for trial := 0; trial < trials; trial++ {
		store := dal.Build(randGraphLike(rng, 7+rng.Intn(3), 12, 5))
		for _, shape := range discShapes {
			p := pattern.MustNew(shape.edges, nil)
			want := oracleCount(t, store, p)
			for _, norestrict := range []bool{false, true} {
				for _, workers := range []int{1, 2, 4} {
					opts := Options{Workers: workers, NoSymmetryBreak: norestrict}
					res, err := Mine(store, p, opts)
					if err != nil {
						t.Fatal(err)
					}
					if res.Ordered != want || res.Unique != want/uint64(res.Automorphisms) || res.Truncated {
						t.Fatalf("trial %d %s norestrict=%v workers=%d: Ordered=%d Unique=%d truncated=%v, want %d (|Aut|=%d)\nplan:\n%s",
							trial, shape.name, norestrict, workers, res.Ordered, res.Unique, res.Truncated, want, res.Automorphisms, res.Plan)
					}
					last := len(res.Plan.Steps) - 1
					for ti, st := range res.Plan.Steps {
						middleDisc = middleDisc || (len(st.Disc) > 0 && ti < last)
						doubleDisc = doubleDisc || len(st.Disc) >= 2
						published = published || (len(st.Disc) > 0 && ti < last && res.Stats.Publishes > 0 && want > 0)
					}
					counted = counted || newShared(store, res.Plan, opts).countedLeaf == last
				}
			}
		}
	}
	if !middleDisc || !doubleDisc || !counted || !published {
		t.Fatalf("shapes no longer reach what this test is for: Disc at a middle step %v, two Disc positions at one step %v, a counted last position %v, ranges published above a middle Disc step %v",
			middleDisc, doubleDisc, counted, published)
	}
}

// TestCountedLeafKeepsCounters: counting the last position must leave the
// instrumented counters where visiting it puts them. An OnEmbedding callback
// turns the counting off, so the same plan runs both ways, and Candidates,
// Embeddings, SetOps and the kernel classes must agree: a node is generated
// and counted once per binding of the positions it reads, and a probe into a
// mark is one mixed-class set operation, whichever way its last level runs.
func TestCountedLeafKeepsCounters(t *testing.T) {
	type counterCase struct {
		name  string
		store *dal.Store
		edges [][]uint32
		order []int
		ops   bool
	}
	var cases []counterCase
	graphLike := dal.Build(randGraphLike(rand.New(rand.NewSource(8)), 9, 20, 12))
	for _, shape := range discShapes {
		cases = append(cases, counterCase{shape.name, graphLike, shape.edges, shape.order, false})
	}
	leafy := dal.Build(leafHypergraph(rand.New(rand.NewSource(9)), 9, 28))
	for _, shape := range leafShapes {
		if shape.conds > 0 {
			cases = append(cases, counterCase{shape.name, leafy, shape.edges, shape.order, true})
		}
	}
	for _, c := range cases {
		p := pattern.MustNew(c.edges, nil)
		for _, norestrict := range []bool{false, true} {
			opts := Options{Workers: 1, Instrument: true, NoSymmetryBreak: norestrict}
			fast, err := mineOrdered(c.store, p, c.order, opts)
			if err != nil {
				t.Fatal(err)
			}
			if e := newShared(c.store, fast.Plan, opts); e.countedLeaf < 0 || (stepConds(e, e.countedLeaf) > 0) != c.ops {
				t.Fatalf("%s: counted leaf %d\nplan:\n%s", c.name, e.countedLeaf, fast.Plan)
			}
			calls := uint64(0)
			opts.OnEmbedding = func([]uint32) { calls++ }
			if newShared(c.store, fast.Plan, opts).countedLeaf >= 0 {
				t.Fatalf("%s: a run with OnEmbedding still counts its last position", c.name)
			}
			slow, err := mineOrdered(c.store, p, c.order, opts)
			if err != nil {
				t.Fatal(err)
			}
			fs, ss := fast.Stats, slow.Stats
			if fast.Ordered != slow.Ordered || fast.Unique != slow.Unique || fs.Candidates != ss.Candidates || fs.Embeddings != ss.Embeddings ||
				fs.SetOps != ss.SetOps || fs.KernelArray != ss.KernelArray || fs.KernelBitmap != ss.KernelBitmap || fs.KernelMixed != ss.KernelMixed {
				t.Fatalf("%s norestrict=%v: counted %d/%d with candidates=%d embeddings=%d setops=%d kernels=%d/%d/%d, visited %d/%d with %d/%d/%d %d/%d/%d",
					c.name, norestrict, fast.Ordered, fast.Unique, fs.Candidates, fs.Embeddings, fs.SetOps, fs.KernelArray, fs.KernelBitmap, fs.KernelMixed,
					slow.Ordered, slow.Unique, ss.Candidates, ss.Embeddings, ss.SetOps, ss.KernelArray, ss.KernelBitmap, ss.KernelMixed)
			}
			if fs.KernelMixed == 0 {
				t.Fatalf("%s norestrict=%v: no probe into a mark", c.name, norestrict)
			}
			// One callback per enumerated tuple: per unordered embedding on a
			// restricted plan, per ordered one otherwise.
			if wantCalls := map[bool]uint64{false: slow.Unique, true: slow.Ordered}[norestrict]; calls != wantCalls {
				t.Fatalf("%s norestrict=%v: %d callbacks, want %d", c.name, norestrict, calls, wantCalls)
			}
		}
	}
}

// TestCountedLeafLimit: a Limit that lands inside a counted last position is
// honoured by falling back to the per-candidate loop there — also where the
// position's ops run as leaf conditions. One worker stops at exactly
// min(total, Limit) enumerated tuples; several may pass it by one in-flight
// embedding each, never by a leaf's worth.
func TestCountedLeafLimit(t *testing.T) {
	k7, k10, block := completeGraph(7), completeGraph(10), blockStore(12)
	for _, c := range []struct {
		store *dal.Store
		edges [][]uint32
		ops   bool
	}{
		{k7, [][]uint32{{0, 1}, {1, 2}}, false},
		{k7, [][]uint32{{0, 1}, {1, 2}, {2, 3}}, false},
		{k10, leafShapes[2].edges, true},   // graph triangle: s0 ∩ c2 == ∅
		{block, leafShapes[0].edges, true}, // core triangle: s0 ⊆ c2
		{block, leafShapes[1].edges, true}, // core 4-clique: |N ∩ AdjSet(c2)| off the node of (c0, c1)
	} {
		store, edges := c.store, c.edges
		p := pattern.MustNew(edges, nil)
		for _, norestrict := range []bool{false, true} {
			full, err := Mine(store, p, Options{Workers: 1, NoSymmetryBreak: norestrict})
			if err != nil {
				t.Fatal(err)
			}
			enumerated := func(r Result) uint64 {
				if r.Restricted {
					return r.Unique
				}
				return r.Ordered
			}
			total := enumerated(full)
			e := newShared(store, full.Plan, Options{Limit: 1})
			if total < 100 || e.countedLeaf < 0 || (stepConds(e, e.countedLeaf) > 0) != c.ops {
				t.Fatalf("%v: %d tuples, counted leaf %d: not the workload this test needs", edges, total, e.countedLeaf)
			}
			// Limit 1 hands the first leaf, which holds an embedding on these
			// stores, back to the per-candidate loop: from there the run is a
			// visiting one, and its counters must not also hold the attempt.
			first := Options{Workers: 1, NoSymmetryBreak: norestrict, Limit: 1, Instrument: true}
			counted, err := Mine(store, p, first)
			if err != nil {
				t.Fatal(err)
			}
			first.OnEmbedding = func([]uint32) {}
			visited, err := Mine(store, p, first)
			if err != nil {
				t.Fatal(err)
			}
			cs, vs := counted.Stats, visited.Stats
			if cs.Candidates != vs.Candidates || cs.Embeddings != vs.Embeddings || cs.SetOps != vs.SetOps ||
				cs.KernelBitmap != vs.KernelBitmap || cs.KernelMixed != vs.KernelMixed || cs.KernelArray != vs.KernelArray {
				t.Fatalf("%v norestrict=%v limit=1: counted run candidates=%d embeddings=%d setops=%d kernels=%d/%d/%d, visited %d/%d/%d %d/%d/%d",
					edges, norestrict, cs.Candidates, cs.Embeddings, cs.SetOps, cs.KernelBitmap, cs.KernelMixed, cs.KernelArray,
					vs.Candidates, vs.Embeddings, vs.SetOps, vs.KernelBitmap, vs.KernelMixed, vs.KernelArray)
			}
			for limit := uint64(1); limit <= total+2; limit += 1 + limit/9 {
				for _, workers := range []int{1, 4} {
					res, err := Mine(store, p, Options{Workers: workers, NoSymmetryBreak: norestrict, Limit: limit})
					if err != nil {
						t.Fatal(err)
					}
					got, want := enumerated(res), min(total, limit)
					if got < want || got > want+uint64(workers-1) || (limit < total && !res.Truncated) || (limit > total && res.Truncated) {
						t.Fatalf("%v norestrict=%v workers=%d limit=%d: enumerated %d (truncated=%v) of %d", edges, norestrict, workers, limit, got, res.Truncated, total)
					}
				}
			}
		}
	}
}

// TestCountedLeafLimitOnLastEmbedding: a run whose very last candidate is the
// embedding that reaches Limit explored everything and is not Truncated —
// also when that candidate sits in a last position that would have been
// counted. The data is a chain A–M–B₁…B₃ plus a B-like hyperedge that touches
// A (which Disc must drop); M has the highest ID, so its subtree comes last.
func TestCountedLeafLimitOnLastEmbedding(t *testing.T) {
	h := hypergraph.MustBuild(10, [][]uint32{
		{0, 1},    // A
		{0, 2, 9}, // overlaps M like a B, but A too
		{2, 3, 4}, // B1
		{2, 5, 6}, // B2
		{2, 7, 8}, // B3
		{1, 2},    // M
	}, nil)
	store := dal.Build(h)
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3, 4}}, nil)
	plan, err := oig.CompileOrdered(p, oig.ModeMerged, []int{1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if last := plan.Steps[2]; len(last.Disc) != 1 || newShared(store, plan, Options{}).countedLeaf != 2 {
		t.Fatalf("not a counted last position with a Disc:\n%s", plan)
	}
	const total = 3
	for limit := uint64(1); limit <= total+1; limit++ {
		res, err := MineWithPlanContext(context.Background(), store, plan, Options{Workers: 1, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ordered != min(total, limit) || res.Truncated != (limit < total) {
			t.Fatalf("limit=%d: Ordered=%d truncated=%v, want %d/%v", limit, res.Ordered, res.Truncated, min(total, limit), limit < total)
		}
	}
}

// TestCountedLeafFallsBackOnLabels: a labelled or hyperedge-labelled pattern
// has a test to make on every last-position candidate, so nothing is counted
// there — and the Disc shapes still agree with the oracles.
func TestCountedLeafFallsBackOnLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	plain := randGraphLike(rng, 8, 14, 4)
	n := plain.NumEdges()
	edges := make([][]uint32, n)
	vlabels := make([]uint32, plain.NumVertices())
	elabels := make([]uint32, n)
	for e := range edges {
		edges[e] = plain.EdgeVertices(uint32(e))
		elabels[e] = uint32(rng.Intn(2))
	}
	for v := range vlabels {
		vlabels[v] = uint32(rng.Intn(2))
	}
	labelled := dal.Build(hypergraph.MustBuild(len(vlabels), edges, vlabels))
	hEdge, err := hypergraph.BuildEdgeLabeled(len(vlabels), edges, nil, elabels)
	if err != nil {
		t.Fatal(err)
	}
	edgeLabelled := dal.Build(hEdge)

	path := [][]uint32{{0, 1}, {1, 2}, {2, 3}}
	type labelCase struct {
		name  string
		store *dal.Store
		p     *pattern.Pattern
	}
	cases := []labelCase{
		{"vertex labels", labelled, pattern.MustNew(path, []uint32{0, 1, 0, 1})},
		{"vertex labels, one class", labelled, pattern.MustNew(path, []uint32{1, 1, 1, 1})},
	}
	for _, pl := range [][]uint32{{0, 1, 0}, {1, 1, 1}, {0, 0, 1}} {
		p, err := pattern.NewEdgeLabeled(path, nil, pl)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, labelCase{fmt.Sprintf("hyperedge labels %v", pl), edgeLabelled, p})
	}
	found := uint64(0)
	for _, c := range cases {
		plan, err := CompilePlan(c.store, c.p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Steps[2].Disc) == 0 || newShared(c.store, plan, Options{}).countedLeaf >= 0 {
			t.Fatalf("%s: disc=%v, counted leaf %d: want a Disc at a last position that is not counted",
				c.name, plan.Steps[2].Disc, newShared(c.store, plan, Options{}).countedLeaf)
		}
		want := oracleCount(t, c.store, c.p)
		found += want
		mineAll(t, c.store, c.p, want, c.name)
	}
	if found == 0 {
		t.Fatal("no labelled case has an embedding")
	}
}

// TestCountedLeafCheckpointResume cuts a run on a counted-leaf plan with
// Limit — the final quiesce saves remainders at every depth, last position
// and middle Disc steps included — and resumes it, twice, to the exact total;
// also where the last position's ops run as leaf conditions, and where Disc
// chains run on a sparse store with shuffled IDs: cached operands and marks a
// resumed worker has never built.
func TestCountedLeafCheckpointResume(t *testing.T) {
	setSplit(t, defaultSplitDepth, 1)
	k8, block := completeGraph(8), blockStore(10)
	type resumeCase struct {
		name  string
		store *dal.Store
		edges [][]uint32
		order []int
		// oneLeaf: the leaf keeps at most one hyperedge, so no cut leaves a
		// remainder at the last depth; every other depth must still have one.
		oneLeaf bool
	}
	var cases []resumeCase
	for _, shape := range discShapes[:3] {
		cases = append(cases, resumeCase{shape.name, k8, shape.edges, shape.order, false})
	}
	// A graph triangle's leaf condition is an emptiness test (s0 ∩ c2 == ∅);
	// it keeps only the third side, so a cut leaves no remainder at the last
	// depth, and the triangle runs on a graph with shuffled IDs. The core
	// triangle and 4-clique leaves (a ⊆ condition, and a count off a cached
	// node) are cut at every depth.
	shuffled := dal.Build(randGraphLike(rand.New(rand.NewSource(20)), 9, 30, 0))
	sparse := dal.Build(randGraphLike(rand.New(rand.NewSource(21)), 12, 26, 14))
	// path4: a middle Disc step, and a leaf that marks two Disc positions as
	// one; star-tail: Disc positions on two nodes of the leaf's chain.
	for _, shape := range []int{1, 4} {
		cases = append(cases, resumeCase{discShapes[shape].name + " on shuffled IDs", sparse, discShapes[shape].edges, discShapes[shape].order, false})
	}
	for _, c := range []struct {
		shape   int
		store   *dal.Store
		oneLeaf bool
	}{{2, shuffled, true}, {0, block, false}, {1, block, false}} {
		leaf := leafShapes[c.shape]
		cases = append(cases, resumeCase{leaf.name, c.store, leaf.edges, leaf.order, c.oneLeaf})
	}
	for _, shape := range cases {
		store := shape.store
		p := pattern.MustNew(shape.edges, nil)
		want := p.NumEdges()
		if shape.oneLeaf {
			want--
		}
		// covers reports whether depths holds every depth below want.
		covers := func(depths map[uint32]bool) bool {
			for d := range want {
				if !depths[uint32(d)] {
					return false
				}
			}
			return true
		}
		// One worker cuts deterministically, and every such leg must leave
		// remainders at every depth. Where two workers cut depends on which
		// one reaches Limit on which candidate, so their legs must cover
		// every depth together.
		twoWorkerDepths := map[uint32]bool{}
		for _, norestrict := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				base := Options{Workers: workers, NoSymmetryBreak: norestrict}
				full, err := mineOrdered(store, p, shape.order, base)
				if err != nil {
					t.Fatal(err)
				}
				plan := full.Plan
				if full.Ordered == 0 || newShared(store, plan, base).countedLeaf < 0 {
					t.Fatalf("%s: Ordered=%d, not a counted-leaf workload", shape.name, full.Ordered)
				}
				sink := &memSink{}
				cut := base
				cut.Checkpoint, cut.Limit = sink, 1+full.Unique/5
				res, err := MineWithPlanContext(context.Background(), store, plan, cut)
				if err != nil || !res.Truncated {
					t.Fatalf("%s: first leg truncated=%v err=%v", shape.name, res.Truncated, err)
				}
				cut.Limit = 1 + full.Unique/2
				res, err = ResumeWithPlanContext(context.Background(), store, plan, sink.latest(t), cut)
				if err != nil || !res.Truncated {
					t.Fatalf("%s: second leg truncated=%v err=%v", shape.name, res.Truncated, err)
				}
				snap := sink.latest(t)
				depths := map[uint32]bool{}
				for _, task := range snap.Frontier {
					depths[task.Depth] = true
				}
				if workers == 1 && !covers(depths) {
					t.Fatalf("%s norestrict=%v: the cut left remainders at depths %v, want every one below %d", shape.name, norestrict, depths, want)
				}
				if workers == 2 {
					maps.Copy(twoWorkerDepths, depths)
				}
				res, err = ResumeWithPlanContext(context.Background(), store, plan, snap, base)
				if err != nil {
					t.Fatal(err)
				}
				if res.Ordered != full.Ordered || res.Unique != full.Unique || res.Truncated {
					t.Fatalf("%s norestrict=%v workers=%d: resumed to %d/%d truncated=%v, want %d/%d",
						shape.name, norestrict, workers, res.Ordered, res.Unique, res.Truncated, full.Ordered, full.Unique)
				}
			}
		}
		if !covers(twoWorkerDepths) {
			t.Fatalf("%s: the two-worker cuts left remainders at depths %v, want every one below %d", shape.name, twoWorkerDepths, want)
		}
	}
}

// TestEstimateFullFractionOnDiscShapes: sampling every root is mining — also
// through the standalone worker EstimateCount drives, which counts its leaves
// without a scheduler or a shared found counter.
func TestEstimateFullFractionOnDiscShapes(t *testing.T) {
	store := completeGraph(7)
	for _, shape := range discShapes {
		p := pattern.MustNew(shape.edges, nil)
		res, err := Mine(store, p, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateCount(context.Background(), store, p, 1, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if est.Ordered != float64(res.Ordered) || est.Unique != float64(res.Unique) {
			t.Fatalf("%s: estimate at fraction 1 is %v/%v, Mine counts %d/%d", shape.name, est.Ordered, est.Unique, res.Ordered, res.Unique)
		}
	}
}
