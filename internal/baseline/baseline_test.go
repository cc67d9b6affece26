package baseline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ohminer/internal/bruteforce"
	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
	"ohminer/internal/intset"
	"ohminer/internal/mbv"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

var kernels = []intset.Kernel{intset.Adaptive, intset.Fast, intset.Scalar}

// crossCheck is the differential core of this package: on (store, p) every
// cell of the 5 variants × 3 kernel families matrix, on 1 worker and on the
// first-level loop's 4, must count what brute force counts — and so must
// match-by-vertex (where its exponential search is tractable), the
// production engine with and without symmetry-breaking restrictions, and
// every variant over an unrestricted plan.
func crossCheck(t *testing.T, store *dal.Store, p *pattern.Pattern, what string) {
	t.Helper()
	h := store.Hypergraph()
	want := bruteforce.Count(h, p)
	aut := uint64(p.Automorphisms())
	if p.NumVertices() <= 6 && !p.EdgeLabeled() {
		if res, err := mbv.Mine(h, p); err != nil || res.Ordered != want {
			t.Fatalf("%s: mbv Ordered=%d err=%v, brute force %d\npattern %s", what, res.Ordered, err, want, p)
		}
	}
	for _, norestrict := range []bool{false, true} {
		res, err := engine.Mine(store, p, engine.Options{Workers: 2, NoSymmetryBreak: norestrict})
		if err != nil || res.Ordered != want || res.Unique != want/aut {
			t.Fatalf("%s: production norestrict=%v Ordered=%d Unique=%d err=%v, brute force %d (|Aut|=%d)\npattern %s",
				what, norestrict, res.Ordered, res.Unique, err, want, aut, p)
		}
	}
	for _, v := range Variants() {
		for _, k := range kernels {
			for _, workers := range []int{1, 4} {
				res, err := Mine(context.Background(), store, p, Options{Gen: v.Gen, Val: v.Val, Kernel: k, Workers: workers})
				if err != nil {
					t.Fatalf("%s: %s: %v", what, v.Name, err)
				}
				if res.Ordered != want || res.Unique != want/aut || res.Truncated {
					t.Fatalf("%s: %s kernel=%s workers=%d: Ordered=%d Unique=%d truncated=%v, want %d/%d/false\npattern %s\nplan:\n%s",
						what, v.Name, k.Name, workers, res.Ordered, res.Unique, res.Truncated, want, want/aut, p, res.Plan)
				}
			}
		}
		mode := oig.ModeMerged
		if v.Val == ValOverlapSimple {
			mode = oig.ModeSimple
		}
		plan, err := oig.CompileWith(p, mode, oig.CompileOptions{NoRestrictions: true})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		res, err := MineWithPlan(context.Background(), store, plan, Options{Gen: v.Gen, Val: v.Val, Workers: 4})
		if err != nil || res.Ordered != want || res.Unique != want/aut || res.Restricted {
			t.Fatalf("%s: %s unrestricted: Ordered=%d Unique=%d restricted=%v err=%v, want %d/%d/false\npattern %s",
				what, v.Name, res.Ordered, res.Unique, res.Restricted, err, want, want/aut, p)
		}
	}
}

// fig1 builds the running example of the paper: the Figure 1(b) hypergraph
// and the Figure 1(a) pattern, whose only embedding is {e1, e2, e3}.
func fig1() (*dal.Store, *pattern.Pattern) {
	h := hypergraph.MustBuild(15, [][]uint32{
		{0, 1, 2, 3, 4, 5},         // e1
		{3, 4, 5, 6, 7, 8},         // e2
		{3, 4, 5, 6, 7, 9, 10, 11}, // e3
		{0, 1, 2, 9, 12, 13},       // e4
		{1, 3, 4, 5, 6, 7, 8, 14},  // e5
	}, nil)
	p := pattern.MustNew([][]uint32{
		{0, 1, 2, 3, 4, 5},
		{3, 4, 5, 6, 7, 8},
		{3, 4, 5, 6, 7, 9, 10, 11},
	}, nil)
	return dal.Build(h), p
}

func TestFig1AllVariants(t *testing.T) {
	store, p := fig1()
	if want := bruteforce.Count(store.Hypergraph(), p); want != 1 {
		t.Fatalf("brute force found %d ordered embeddings, want 1", want)
	}
	crossCheck(t, store, p, "fig1")
}

// randEdges draws ne raw hyperedges of 2..maxSize vertices over nv vertices.
func randEdges(rng *rand.Rand, nv, ne, maxSize int) [][]uint32 {
	edges := make([][]uint32, ne)
	for i := range edges {
		for j := 2 + rng.Intn(maxSize-1); j > 0; j-- {
			edges[i] = append(edges[i], uint32(rng.Intn(nv)))
		}
	}
	return edges
}

func randHypergraph(rng *rand.Rand, labeled bool) *hypergraph.Hypergraph {
	nv := 12 + rng.Intn(25)
	edges := randEdges(rng, nv, 15+rng.Intn(40), 6)
	var labels []uint32
	if labeled {
		labels = make([]uint32, nv)
		for v := range labels {
			labels[v] = uint32(rng.Intn(3))
		}
	}
	h, err := hypergraph.Build(nv, edges, labels)
	if err != nil {
		panic(err)
	}
	return h
}

// TestDifferentialAllVariants is the central correctness test of the
// comparison matrix, on randomized hypergraphs and sampled patterns.
func TestDifferentialAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		h := randHypergraph(rng, false)
		p, err := pattern.Sample(h, 2+rng.Intn(3), 2, 30, rng)
		if err != nil {
			continue // graph too sparse for this pattern; fine
		}
		crossCheck(t, dal.Build(h), p, fmt.Sprintf("trial %d", trial))
	}
}

// TestDifferentialLabeled repeats the differential test on labeled inputs.
func TestDifferentialLabeled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		h := randHypergraph(rng, true)
		p, err := pattern.Sample(h, 2+rng.Intn(2), 2, 30, rng)
		if err != nil {
			continue
		}
		crossCheck(t, dal.Build(h), p, fmt.Sprintf("labeled trial %d", trial))
	}
}

// TestDifferentialDense exercises dense patterns (Sec. 5.5), which stress
// the validation path with many overlaps.
func TestDifferentialDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 40, NumEdges: 60,
		Communities: 3, MemberOverlap: 1.5, EdgeSizeMin: 3, EdgeSizeMax: 8, EdgeSizeMean: 5, Seed: 77})
	store := dal.Build(h)
	for trial := 0; trial < 10; trial++ {
		p, err := pattern.SampleDense(h, 3, 3, 25, rng)
		if err != nil {
			t.Skip("dense sampling failed on tiny graph")
		}
		crossCheck(t, store, p, fmt.Sprintf("dense trial %d", trial))
	}
}

// TestExoticPatternsDifferential mines patterns handcrafted to hit the
// compilers' rare operations, which random sampling almost never produces —
// nested hyperedges (subset checks), a hyperedge equal to an overlap
// (OpEqCheck), subset completion, two overlaps equal as sets with disjoint
// derivations (OpIntersectEq), two pairs sharing a class but no hyperedge
// (generation-sized, settled by two containment checks) — on hypergraphs
// holding a vertex-renamed copy
// of the pattern, a near miss with one vertex perturbed, and noise, so both
// the accept and the reject path of every op run.
func TestExoticPatternsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	const nv = 40
	for pi, p := range []*pattern.Pattern{
		pattern.MustNew([][]uint32{{0, 1, 2, 3}, {1, 2}}, nil),
		pattern.MustNew([][]uint32{{0, 1, 2, 3, 4}, {1, 2, 3}, {2, 3}}, nil),
		pattern.MustNew([][]uint32{{0, 1, 2, 3}, {2, 3, 4, 5}, {2, 3}}, nil),
		pattern.MustNew([][]uint32{{1, 2, 3, 4}, {3, 4, 5, 6}, {2, 3, 4, 5, 9}}, nil),
		pattern.MustNew([][]uint32{{0, 1, 4, 5}, {2, 3, 4, 5}, {4, 5, 6, 7}, {4, 5, 8, 9}}, nil),
		// Two pairs in one overlap class without a hyperedge in common, every
		// cross pair overlapping in more: the merged plan needs rep ⊆ c_j and
		// rep ⊆ c_t, and HGMatch-style generation has to count pair sizes.
		pattern.MustNew([][]uint32{{0, 1, 2, 3, 4}, {0, 1, 5, 6, 7}, {0, 1, 2, 5, 8}, {0, 1, 3, 6, 9}}, nil),
		pattern.MustNew([][]uint32{{0, 1, 2, 3}, {0, 4, 5, 6}, {0, 1, 4, 7}, {0, 2, 5, 8}}, nil),
	} {
		for trial := 0; trial < 6; trial++ {
			edges := randEdges(rng, nv, 25, 5)
			for _, nearMiss := range []bool{false, true} {
				perm := rng.Perm(nv)
				for i := 0; i < p.NumEdges(); i++ {
					var e []uint32
					for k, u := range p.Edge(i) {
						if nearMiss && i == 0 && k == 0 {
							u = (u + 1) % uint32(p.NumVertices())
						}
						e = append(e, uint32(perm[u]))
					}
					edges = append(edges, e)
				}
			}
			h, err := hypergraph.Build(nv, edges, nil)
			if err != nil {
				t.Fatal(err)
			}
			crossCheck(t, dal.Build(h), p, fmt.Sprintf("exotic pattern %d trial %d", pi, trial))
		}
	}
}

// TestEdgeLabeledDifferential runs the matrix on random hyperedge-labeled
// inputs.
func TestEdgeLabeledDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 25; trial++ {
		nv := 10 + rng.Intn(20)
		edges := randEdges(rng, nv, 15+rng.Intn(30), 5)
		elabels := make([]uint32, len(edges))
		for i := range elabels {
			elabels[i] = uint32(rng.Intn(2))
		}
		h, err := hypergraph.BuildEdgeLabeled(nv, edges, nil, elabels)
		if err != nil {
			t.Fatal(err)
		}
		// Sample a structural pattern, then attach random edge labels.
		sp, err := pattern.Sample(h, 2+rng.Intn(2), 2, 25, rng)
		if err != nil {
			continue
		}
		pedges := make([][]uint32, sp.NumEdges())
		plabels := make([]uint32, sp.NumEdges())
		for i := range pedges {
			pedges[i] = sp.Edge(i)
			plabels[i] = uint32(rng.Intn(2))
		}
		p, err := pattern.NewEdgeLabeled(pedges, nil, plabels)
		if err != nil {
			t.Fatal(err)
		}
		crossCheck(t, dal.Build(h), p, fmt.Sprintf("edge-labeled trial %d", trial))
	}
}

// TestFirstLevelLoop pins the driver itself: workers beyond the candidate
// count are not spawned (a single first-level candidate is mined by one
// worker, all of its subtree included), and many candidates shared by 4
// workers are each mined exactly once.
func TestFirstLevelLoop(t *testing.T) {
	// One degree-3 hub, 12 degree-2 spokes through vertex 0: the chain
	// pattern hub→spoke has one first-level candidate and 12 embeddings;
	// spoke→spoke has 12 first-level candidates and 12·11 embeddings.
	edges := [][]uint32{{0, 1, 2}}
	for i := 0; i < 12; i++ {
		edges = append(edges, []uint32{0, uint32(3 + i)})
	}
	store := dal.Build(hypergraph.MustBuild(15, edges, nil))
	for _, tc := range []struct {
		p    *pattern.Pattern
		want uint64
	}{
		{pattern.MustNew([][]uint32{{0, 1, 2}, {0, 3}}, nil), 12},
		{pattern.MustNew([][]uint32{{0, 1}, {0, 2}}, nil), 12 * 11},
		{pattern.MustNew([][]uint32{{0, 1}}, nil), 12}, // single hyperedge: the loop is the whole search
	} {
		for _, workers := range []int{1, 4, 64} {
			res, err := Mine(context.Background(), store, tc.p, Options{Workers: workers})
			if err != nil || res.Ordered != tc.want || res.Truncated {
				t.Errorf("%s workers=%d: Ordered=%d truncated=%v err=%v, want %d", tc.p, workers, res.Ordered, res.Truncated, err, tc.want)
			}
		}
	}
}

// TestDeadlineTruncates: a context past its deadline stops every worker at
// its next candidate, returns context.DeadlineExceeded and marks the
// undercount; a generous one changes nothing.
func TestDeadlineTruncates(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "d", NumVertices: 250, NumEdges: 4000,
		Communities: 6, MemberOverlap: 2, EdgeSizeMin: 2, EdgeSizeMax: 6, EdgeSizeMean: 3, Seed: 19})
	store := dal.Build(h)
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil)
	hgm := Options{Gen: GenHGMatch, Val: ValProfiles, Workers: 2}
	full, err := Mine(context.Background(), store, p, hgm)
	if err != nil || full.Truncated {
		t.Fatalf("full run: %+v, %v", full, err)
	}
	if full.Elapsed < 5*time.Millisecond {
		t.Skipf("workload too fast (%v) to truncate reliably", full.Elapsed)
	}
	mine := func(d time.Duration) (Result, error) {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		return Mine(ctx, store, p, hgm)
	}
	cut, err := mine(time.Millisecond)
	if !errors.Is(err, context.DeadlineExceeded) || !cut.Truncated || cut.Ordered >= full.Ordered {
		t.Fatalf("1ms deadline: Ordered=%d truncated=%v err=%v, full run counted %d in %v", cut.Ordered, cut.Truncated, err, full.Ordered, full.Elapsed)
	}
	if res, err := mine(time.Hour); err != nil || res.Truncated || res.Ordered != full.Ordered {
		t.Fatalf("1h deadline: Ordered=%d truncated=%v err=%v, want %d", res.Ordered, res.Truncated, err, full.Ordered)
	}
}

// TestInstrumentStats: the Fig. 3 counters. HGMatch on Fig. 1 re-derives NM
// sets per overlap vertex and re-profiles shared vertices, so both
// redundancy counters must be non-zero; the phase timers need Instrument.
func TestInstrumentStats(t *testing.T) {
	store, p := fig1()
	res, err := Mine(context.Background(), store, p, Options{Gen: GenHGMatch, Val: ValProfiles, Workers: 1, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Candidates == 0 || st.Embeddings == 0 || st.NMFetches == 0 || st.ProfileVertices == 0 {
		t.Fatalf("stats not collected: %+v", st)
	}
	if st.RedundantNMFetches == 0 || st.RedundantProfileVertices == 0 {
		t.Fatalf("expected redundant NM fetches and profile vertices on fig1: %+v", st)
	}
	if st.GenTime <= 0 || st.ValTime <= 0 {
		t.Fatalf("phase timers missing: %+v", st)
	}
	plain, err := Mine(context.Background(), store, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := plain.Stats; s.NMFetches != 0 || s.ProfileVertices != 0 || s.GenTime != 0 || s.ValTime != 0 {
		t.Fatalf("uninstrumented OHMiner cell counted HGMatch work or time: %+v", s)
	}
}

func TestMineErrors(t *testing.T) {
	store, p := fig1()
	if _, err := MineWithPlan(context.Background(), store, oig.MustCompile(p, oig.ModeSimple), Options{Val: ValOverlap}); err == nil {
		t.Error("merged validation accepted simple plan")
	}
	if _, err := MineWithPlan(context.Background(), store, oig.MustCompile(p, oig.ModeMerged), Options{Val: ValOverlapSimple}); err == nil {
		t.Error("simple validation accepted merged plan")
	}
	lp := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, []uint32{0, 0, 1})
	if _, err := Mine(context.Background(), store, lp, Options{}); err == nil {
		t.Error("labeled pattern accepted on unlabeled hypergraph")
	}
	elp, err := pattern.NewEdgeLabeled([][]uint32{{0, 1}, {1, 2}}, nil, []uint32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mine(context.Background(), store, elp, Options{}); err == nil {
		t.Error("hyperedge-labeled pattern accepted on hypergraph without hyperedge labels")
	}
}

func TestVariantByName(t *testing.T) {
	v, err := VariantByName("OHM-V")
	if err != nil || v.Gen != GenHGMatch || v.Val != ValOverlap {
		t.Fatalf("%+v %v", v, err)
	}
	if _, err := VariantByName("nope"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestProfileCounts(t *testing.T) {
	_, p := fig1()
	plan := oig.MustCompile(p, oig.ModeMerged)
	pc := profileCounts(plan)
	if len(pc) != 3 {
		t.Fatalf("profile prefixes: %d", len(pc))
	}
	// Prefix 0: every vertex of edge 0 has profile {0}.
	if pc[0][1] != plan.Pattern.Degree(0) || len(pc[0]) != 1 {
		t.Fatalf("prefix-0 profiles: %v", pc[0])
	}
	// Full prefix: total count = number of pattern vertices.
	total := 0
	for _, c := range pc[2] {
		total += c
	}
	if total != p.NumVertices() {
		t.Fatalf("full prefix counts %d vertices, want %d", total, p.NumVertices())
	}
}

// TestStampHelpersWraparound checks the generation-advance helpers directly:
// when a uint32 stamp wraps to zero the mark array must be cleared and the
// stamp restarted at 1, otherwise marks written ~4 billion generations ago
// read as current.
func TestStampHelpersWraparound(t *testing.T) {
	w := &worker{
		edgeMark: []uint32{7, 0, ^uint32(0), 1},
		vertMark: []uint32{1, 2, 3},
	}
	w.edgeStamp = ^uint32(0)
	w.nextEdgeStamp()
	if w.edgeStamp != 1 {
		t.Errorf("edgeStamp after wrap = %d, want 1", w.edgeStamp)
	}
	for i, m := range w.edgeMark {
		if m != 0 {
			t.Errorf("edgeMark[%d] = %d after wrap, want 0", i, m)
		}
	}

	w.vertStamp = ^uint32(0)
	w.nextVertStamp()
	if w.vertStamp != 1 {
		t.Errorf("vertStamp after wrap = %d, want 1", w.vertStamp)
	}
	for i, m := range w.vertMark {
		if m != 0 {
			t.Errorf("vertMark[%d] = %d after wrap, want 0", i, m)
		}
	}

	// A mid-range advance must not clear anything.
	w.edgeMark[2] = 9
	w.edgeStamp = 41
	w.nextEdgeStamp()
	if w.edgeStamp != 42 || w.edgeMark[2] != 9 {
		t.Errorf("mid-range advance: stamp=%d mark=%d, want 42/9", w.edgeStamp, w.edgeMark[2])
	}
}

// TestMiningAcrossStampWraparound is the end-to-end regression test for the
// wraparound bug: a single worker starts with both stamps a few generations
// below ^uint32(0) and mark arrays poisoned with small values that alias the
// post-wrap stamps. Mining must cross the wrap and still produce exactly the
// counts of a fresh run; without the clear-on-wrap guard the stale marks
// read as "already seen" and the run undercounts.
func TestMiningAcrossStampWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randHypergraph(rng, false)
	var p *pattern.Pattern
	for p == nil {
		var err error
		p, err = pattern.Sample(h, 3, 2, 30, rng)
		if err != nil {
			h = randHypergraph(rng, false)
		}
	}
	store := dal.Build(h)

	// GenHGMatch exercises edgeMark (incident-edge merges), ValProfiles
	// exercises vertMark (profile validation) — one run covers both. The
	// plan is unrestricted so the worker's tuple count is the ordered count.
	opts := Options{Gen: GenHGMatch, Val: ValProfiles, Workers: 1}
	plan, err := oig.CompileWith(p, oig.ModeMerged, oig.CompileOptions{NoRestrictions: true})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := MineWithPlan(context.Background(), store, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Ordered == 0 {
		t.Fatal("sampled pattern has no embeddings; test would be vacuous")
	}

	r := &run{store: store, plan: plan, opts: opts, kernel: intset.Fast, profiles: profileCounts(plan)}
	w := newWorker(r)
	first := w.firstCandidates()
	const start = ^uint32(0) - 2
	w.edgeStamp = start
	w.vertStamp = start
	for i := range w.edgeMark {
		w.edgeMark[i] = uint32(i%8) + 1 // aliases stamps 1..8 after the wrap
	}
	for i := range w.vertMark {
		w.vertMark[i] = uint32(i%8) + 1
	}
	for _, f := range first {
		w.mineFrom(f)
	}
	if w.count != clean.Ordered {
		t.Errorf("count across stamp wrap = %d, want %d", w.count, clean.Ordered)
	}
	// Prove the wrap actually happened: both stamps must have advanced past
	// ^uint32(0) and restarted low. If this fires, the input no longer
	// drives enough generations and the test is vacuous.
	if w.edgeStamp >= start {
		t.Errorf("edgeStamp=%d never wrapped (started at %d)", w.edgeStamp, start)
	}
	if w.vertStamp >= start {
		t.Errorf("vertStamp=%d never wrapped (started at %d)", w.vertStamp, start)
	}
}
