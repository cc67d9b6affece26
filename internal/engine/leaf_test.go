package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ohminer/internal/baseline"
	"ohminer/internal/dal"
	"ohminer/internal/hypergraph"
	"ohminer/internal/intset"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// This file covers the plan's conditions (cond.go): every step filters the
// list its chain of cached nodes yields, and the last position counts what
// the conditions keep instead of visiting it. internal/baseline — its
// signature oracle Keep, and its interpreter of the same conditions — and
// brute force are the oracles.

// planConds is the number of conditions the plan holds.
func planConds(plan *oig.Plan) (n int) {
	for _, st := range plan.Steps {
		n += len(st.Conds)
	}
	return n
}

// stepConds is the number of conditions step t is held to, over its chain.
func stepConds(e *shared, t int) (n int) {
	for i := e.last[t]; i >= 0; i = e.nodes[i].parent {
		n += len(e.nodes[i].conds)
	}
	return n
}

// leafShapes holds one pattern per form of condition, with the number of
// conditions its last step is held to (0 where generation implies every
// check). T(M) is ∩_{i∈M} c_i.
var leafShapes = []struct {
	name  string
	edges [][]uint32
	order []int // the matching order the form appears in
	conds int
}{
	{"core triangle: |T(012)| = 2 = |T(01)|", [][]uint32{{0, 1, 2}, {0, 1, 3}, {0, 1, 4}}, []int{0, 1, 2}, 1},
	{"core 4-clique: |T(013)| = 2, Y read at positions 0 and 1", [][]uint32{{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {0, 1, 5}}, []int{0, 1, 2, 3}, 1},
	{"graph triangle: |T(012)| = 0", [][]uint32{{0, 1}, {1, 2}, {0, 2}}, []int{0, 1, 2}, 1},
	{"|T(012)| = 1 < |T(01)| = 2 over 3-vertex hyperedges", [][]uint32{{0, 1, 2}, {0, 1, 3}, {0, 4, 5}}, []int{0, 1, 2}, 1},
	{"|T(012)| = 1 < |T(01)| = 2 over 4-vertex hyperedges", [][]uint32{{0, 1, 2, 3}, {0, 1, 4, 5}, {0, 2, 4, 6}}, []int{0, 1, 2}, 1},
	{"c1 ⊆ c0, implied by generation", [][]uint32{{0, 1, 2}, {0, 1}}, []int{0, 1}, 0},
	{"c0 ⊆ c1, implied by generation", [][]uint32{{0, 1}, {0, 1, 2}}, []int{0, 1}, 0},
	{"c3 equal to T(12): |T(123)| = 2 and |T(023)| = 1", [][]uint32{{0, 1, 3}, {0, 2, 3}, {0, 2}, {0, 2, 4}}, []int{0, 1, 3, 2}, 2},
	{"a 3-way minimal member beside a representative pair at the same step: |T(013)| = |T(023)| = |T(123)| = 1", [][]uint32{{0, 3, 4, 5}, {0, 1, 3}, {0, 1, 2, 3}, {2, 3, 4}}, []int{0, 2, 1, 3}, 3},
	{"a 3-way minimal member after its representative: |T(012)| = 1 at step 2, |T(013)| = |T(023)| = 1 at step 3", [][]uint32{{0, 1, 4, 5}, {2, 3, 4, 5}, {2, 3, 4}, {1, 3, 4}}, []int{0, 1, 2, 3}, 3},
}

// leafHypergraph draws n distinct hyperedges of two to four vertices over nv
// vertices, plus five 3-vertex hyperedges around one shared pair, so that
// every leaf shape occurs — the core cliques included.
func leafHypergraph(rng *rand.Rand, nv, n int) *hypergraph.Hypergraph {
	seen := map[string]bool{}
	var edges [][]uint32
	add := func(e []uint32) {
		slices.Sort(e)
		if k := fmt.Sprint(e); !seen[k] {
			seen[k] = true
			edges = append(edges, e)
		}
	}
	for x := uint32(2); x < 7; x++ {
		add([]uint32{0, 1, x})
	}
	for len(edges) < n+5 {
		var e []uint32
		for _, v := range rng.Perm(nv)[:2+rng.Intn(3)] {
			e = append(e, uint32(v))
		}
		add(e)
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return hypergraph.MustBuild(nv, edges, nil)
}

// TestLeafShapesDifferential: engine = baseline = brute force on every row of
// the translation table over random hypergraphs, restricted and not, on 1, 2
// and 4 workers that publish at every depth (setSplit), so that the
// cached nodes of a worker meet bindings rebound by a steal.
func TestLeafShapesDifferential(t *testing.T) {
	setSplit(t, math.MaxInt, 1)
	rng := rand.New(rand.NewSource(2501))
	trials := 4
	if testing.Short() {
		trials = 2
	}
	found := make([]uint64, len(leafShapes))
	published := false
	for trial := 0; trial < trials; trial++ {
		store := dal.Build(leafHypergraph(rng, 9, 28))
		for i, shape := range leafShapes {
			p := pattern.MustNew(shape.edges, nil)
			want := oracleCount(t, store, p)
			found[i] += want
			for _, norestrict := range []bool{false, true} {
				for _, workers := range []int{1, 2, 4} {
					opts := Options{Workers: workers, NoSymmetryBreak: norestrict}
					plan, err := CompilePlanOrdered(p, shape.order, opts)
					if err != nil {
						t.Fatal(err)
					}
					e := newShared(store, plan, opts)
					if last := len(plan.Steps) - 1; e.countedLeaf != last || stepConds(e, last) != shape.conds {
						t.Fatalf("%s: counted leaf %d with %d conditions, want position %d with %d\nplan:\n%s", shape.name, e.countedLeaf, stepConds(e, last), last, shape.conds, plan)
					}
					res, err := MineWithPlan(store, plan, opts)
					if err != nil {
						t.Fatal(err)
					}
					if res.Ordered != want || res.Unique != want/uint64(res.Automorphisms) || res.Truncated {
						t.Fatalf("trial %d %s norestrict=%v workers=%d: Ordered=%d Unique=%d truncated=%v, want %d (|Aut|=%d)\nplan:\n%s",
							trial, shape.name, norestrict, workers, res.Ordered, res.Unique, res.Truncated, want, res.Automorphisms, plan)
					}
					published = published || (workers > 1 && res.Stats.Publishes > 0 && want > 0)
				}
			}
		}
	}
	for i, n := range found {
		if n == 0 {
			t.Fatalf("%s: no embedding in any trial", leafShapes[i].name)
		}
	}
	if !published {
		t.Fatal("no run published a range: the cache never met a stolen prefix")
	}
}

// TestLeafRefusedFormsFallBack: what a counted last position still refuses —
// a pattern with vertex or hyperedge labels, a run with OnEmbedding or a
// PositionFilter — visits it, and still counts exactly. Equalities are
// counted.
func TestLeafRefusedFormsFallBack(t *testing.T) {
	rng := rand.New(rand.NewSource(2502))
	h := leafHypergraph(rng, 8, 26)
	store := dal.Build(h)
	n := h.NumEdges()
	edges := make([][]uint32, n)
	vlabels := make([]uint32, h.NumVertices())
	elabels := make([]uint32, n)
	for e := range edges {
		edges[e] = h.EdgeVertices(uint32(e))
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
	core := leafShapes[0].edges
	edgeLabelledCore, err := pattern.NewEdgeLabeled(core, nil, []uint32{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		store   *dal.Store
		p       *pattern.Pattern
		counted bool
	}{
		{leafShapes[7].name, store, pattern.MustNew(leafShapes[7].edges, nil), true},
		{leafShapes[8].name, store, pattern.MustNew(leafShapes[8].edges, nil), true},
		{"vertex labels", labelled, pattern.MustNew(core, []uint32{0, 0, 1, 0, 1}), false},
		{"hyperedge labels", edgeLabelled, edgeLabelledCore, false},
	}
	for _, c := range cases {
		plan, err := CompilePlan(c.store, c.p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		last := len(plan.Steps) - 1
		if len(plan.Steps[last].Conds) == 0 || (newShared(c.store, plan, Options{}).countedLeaf == last) != c.counted {
			t.Fatalf("%s: want a condition at a last position that is counted=%v\nplan:\n%s", c.name, c.counted, plan)
		}
		mineAll(t, c.store, c.p, oracleCount(t, c.store, c.p), c.name)
	}

	p := pattern.MustNew(core, nil)
	want := oracleCount(t, store, p)
	if want == 0 {
		t.Fatal("no core triangle in the data")
	}
	calls := uint64(0)
	for _, opts := range []Options{
		{Workers: 1, NoSymmetryBreak: true, OnEmbedding: func([]uint32) { calls++ }},
		{Workers: 1, PositionFilter: func(int, uint32) bool { return true }},
	} {
		res, err := Mine(store, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if newShared(store, res.Plan, opts).countedLeaf >= 0 || res.Ordered != want {
			t.Fatalf("OnEmbedding=%v PositionFilter=%v: counted leaf %d, Ordered=%d, want a visited leaf and %d",
				opts.OnEmbedding != nil, opts.PositionFilter != nil, newShared(store, res.Plan, opts).countedLeaf, res.Ordered, want)
		}
	}
	if calls != want {
		t.Fatalf("%d callbacks, want %d", calls, want)
	}
}

// TestImpliedConditionsDropped: a step whose every check generation already
// guarantees carries no condition, at a middle step as at the last — c1 ⊆ c0
// when c1's whole degree is its overlap with c0, and every pairwise overlap
// whose size is the pair's ConnOverlap. Such a pair still becomes an overlap
// node for the later steps that read it.
func TestImpliedConditionsDropped(t *testing.T) {
	store := blockStore(6)
	for _, c := range []struct {
		literal string
		step    int
	}{
		{"0 1 2; 2 3 4; 0 1 2 5 6 7 8 9", 1},
		{"0 1 2; 0 1 3; 0 1 4; 0 1 5", 1},
		{"0 1 2; 0 1 3; 0 1 4; 0 1 5; 0 1 6", 1},
		{"0 1 2 3; 0 1 4 5; 0 2 4 6", 1},
	} {
		p, err := pattern.Parse(c.literal)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := CompilePlan(store, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		e := newShared(store, plan, Options{})
		if n := len(plan.Steps[c.step].Conds) + stepConds(e, c.step); n != 0 || planConds(plan) == 0 && len(e.vdefs) == 0 {
			t.Fatalf("%s: step %d carries %d conditions, want 0\nplan:\n%s", c.literal, c.step, n, plan)
		}
	}
}

// blockStore is a clique block: k hyperedges sharing the core {0, 1}, each
// with a private vertex, so that any j of them match the core j-clique.
func blockStore(k uint32) *dal.Store {
	var edges [][]uint32
	for i := uint32(0); i < k; i++ {
		edges = append(edges, []uint32{0, 1, 2 + i})
	}
	return dal.Build(hypergraph.MustBuild(int(k)+2, edges, nil))
}

// randLeafPattern draws a pattern of three to five hyperedges of two to four
// vertices, with two vertex labels when labels is set; nil when the draw is
// not a valid pattern.
func randLeafPattern(rng *rand.Rand, labels bool) *pattern.Pattern {
	m, nv := 3+rng.Intn(3), 4+rng.Intn(4)
	edges := make([][]uint32, m)
	for i := range edges {
		for _, v := range rng.Perm(nv)[:2+rng.Intn(3)] {
			edges[i] = append(edges[i], uint32(v))
		}
		slices.Sort(edges[i])
	}
	var vl []uint32
	if labels {
		for range nv {
			vl = append(vl, uint32(rng.Intn(2)))
		}
	}
	p, err := pattern.New(edges, vl)
	if err != nil || p.NumVertices() != nv {
		return nil
	}
	return p
}

// TestLeafConditionsMatchInterpreter: on random plans and random bindings of
// their prefix, every step's list — the chain's nodes, the per-candidate
// tests and the conditions — holds exactly the candidates that extend the
// prefix as the pattern's signature says (baseline.Keep, which reads no
// condition); a counted last position counts that many. The prefix is drawn
// position by position from what Keep keeps, as a run would bind it, and
// redrawn from a random position on, so that cached nodes are hit by some
// bindings and rebuilt for others.
func TestLeafConditionsMatchInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(2503))
	plain := leafHypergraph(rng, 10, 40)
	vl := make([]uint32, plain.NumVertices())
	for v := range vl {
		vl[v] = uint32(rng.Intn(2))
	}
	edges := make([][]uint32, plain.NumEdges())
	for e := range edges {
		edges[e] = plain.EdgeVertices(uint32(e))
	}
	stores := []*dal.Store{dal.Build(plain), dal.Build(leafHypergraph(rng, 8, 30)), blockStore(9), dal.Build(hypergraph.MustBuild(len(vl), edges, vl))}
	plans, kept, rejected, middle, counted := 0, 0, 0, 0, 0
	for draw := 0; draw < 6000 && plans < 200; draw++ {
		si := draw % len(stores)
		p := randLeafPattern(rng, si == 3)
		if p == nil {
			continue
		}
		store := stores[si]
		opts := Options{NoSymmetryBreak: rng.Intn(2) == 0}
		plan, err := CompilePlan(store, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		e := newShared(store, plan, opts)
		last := len(plan.Steps) - 1
		plans++
		w := newWorker(e, nil)
		bound := 0
		for b := 0; b < 60; b++ {
			from := rng.Intn(bound + 1)
			if bound = bindRandomPrefix(w, rng, from, last); bound == 0 {
				continue
			}
			for k := 1; k <= bound; k++ {
				raw := rawCandidates(w, k)
				want := baseline.Keep(store, plan, w.c[:k], raw)
				if got := w.candidates(k); !slices.Equal(got, want) {
					t.Fatalf("pattern %s, prefix %v: step %d keeps %v, the signature %v of %v\nplan:\n%s", p, w.c[:k], k, got, want, raw, plan)
				}
				if before := w.count; k == e.countedLeaf && w.countLeaf(k) {
					if n := w.count - before; n != uint64(len(want)) {
						t.Fatalf("pattern %s, prefix %v: the last position counts %d, the signature keeps %v\nplan:\n%s", p, w.c[:k], n, want, plan)
					}
					counted++
				}
				kept += len(want)
				rejected += len(raw) - len(want)
				if k < last && len(raw) > len(want) {
					middle++
				}
			}
		}
	}
	t.Logf("%d plans, %d candidates kept and %d rejected (%d rejections at a middle step), %d counted lists", plans, kept, rejected, middle, counted)
	if plans < 80 || kept < 400 || rejected < 400 || middle < 100 || counted < 100 {
		t.Fatalf("%d plans, %d candidates kept and %d rejected (%d rejections at a middle step), %d counted lists: too few to mean anything",
			plans, kept, rejected, middle, counted)
	}
}

// rawCandidates is what generation offers position k: the intersection of
// its Conn groups, Disc not yet subtracted, folded with the scalar merge so
// the oracle shares no kernel with the engine's generation.
func rawCandidates(w *worker, k int) []uint32 {
	st := &w.e.plan.Steps[k]
	var out []uint32
	for i, j := range st.Conn {
		g := w.e.store.AdjSet(w.c[j], st.Degree, st.ConnOverlap[i]).Elems()
		if i == 0 {
			out = append([]uint32(nil), g...)
		} else {
			out = intset.Intersect(out, g, nil)
		}
	}
	return out
}

// bindRandomPrefix rebinds positions from..last-1 of w to random candidates
// the signature keeps there — the first position's admitted hyperedges,
// then what internal/baseline's Keep accepts of generation's offer — and
// returns how many positions are bound: fewer than last when one has no
// candidate. Every prefix it leaves is a valid partial embedding.
func bindRandomPrefix(w *worker, rng *rand.Rand, from, last int) int {
	for k := from; k < last; k++ {
		var cands []uint32
		if k == 0 {
			cands = firstCandidates(w.e.store, w.e.plan, w.e.opts)
		} else {
			cands = baseline.Keep(w.e.store, w.e.plan, w.c[:k], rawCandidates(w, k))
		}
		if len(cands) == 0 {
			return k
		}
		w.c[k] = cands[rng.Intn(len(cands))]
	}
	return last
}

// TestStolenPrefixDifferential: the 4- and 5-hyperedge core cliques, whose
// middle steps share chain nodes with their last, and the pair-class family
// of TestPairClassesDifferential, restricted and not, on 1, 2 and 4 workers
// that publish at every depth (setSplit): every prefix a thief takes
// over meets caches built for another, and the counts stay brute force's and
// the baseline's.
func TestStolenPrefixDifferential(t *testing.T) {
	setSplit(t, math.MaxInt, 1)
	rng := rand.New(rand.NewSource(2601))
	pats := []*pattern.Pattern{
		pattern.MustNew(leafShapes[1].edges, nil),
		pattern.MustNew([][]uint32{{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {0, 1, 5}, {0, 1, 6}}, nil),
		pattern.MustNew([][]uint32{{0, 1, 2, 3, 4}, {0, 1, 5, 6, 7}, {0, 1, 2, 5, 8}, {0, 1, 3, 6, 9}}, nil),
		pattern.MustNew([][]uint32{{0, 1, 2, 3}, {0, 4, 5, 6}, {0, 1, 4, 7}, {0, 2, 5, 8}}, nil),
	}
	stores := []*dal.Store{blockStore(8), dal.Build(leafHypergraph(rng, 8, 40))}
	for _, p := range pats[2:] {
		stores = append(stores, pairClassStore(rng, p))
	}
	stolen := false
	for _, store := range stores {
		for _, p := range pats {
			want := oracleCount(t, store, p)
			for _, norestrict := range []bool{false, true} {
				for _, workers := range []int{1, 2, 4} {
					res, err := Mine(store, p, Options{Workers: workers, NoSymmetryBreak: norestrict})
					if err != nil {
						t.Fatal(err)
					}
					if res.Ordered != want || res.Unique != want/uint64(res.Automorphisms) || res.Truncated {
						t.Fatalf("%s norestrict=%v workers=%d: Ordered=%d Unique=%d truncated=%v, want %d\nplan:\n%s",
							p, norestrict, workers, res.Ordered, res.Unique, res.Truncated, want, res.Plan)
					}
					stolen = stolen || res.Stats.Steals > 0 && want > 0
				}
			}
		}
	}
	if !stolen {
		t.Fatal("no run stole a prefix")
	}
}

// markShapes are the patterns whose steps read an operand that stays bound
// across a loop: Disc chains (a middle step's Disc, two positions in one
// mark, Disc on two nodes of a chain) and conditions whose overlap reads two
// or three positions.
var markShapes = []struct {
	name  string
	edges [][]uint32
}{
	{discShapes[1].name, discShapes[1].edges},
	{discShapes[4].name, discShapes[4].edges},
	{discShapes[6].name, discShapes[6].edges},
	{leafShapes[1].name, leafShapes[1].edges},
	{leafShapes[4].name, leafShapes[4].edges},
	{leafShapes[8].name, leafShapes[8].edges},
	{leafShapes[9].name, leafShapes[9].edges},
}

// TestMarkedStepsMatchInterpreter: on sparse stores with shuffled IDs, where
// no operand earns a bitmap window and so every loop-invariant one is marked,
// each step's list — generated and counted — equals what the signature
// (baseline.Keep) keeps for prefixes rebound from random positions
// on, and whole runs on 1, 2 and 4 workers that publish at every depth
// (setSplit) count brute force's total, restricted and not: a
// stolen prefix meets marks keyed for another and must miss.
func TestMarkedStepsMatchInterpreter(t *testing.T) {
	setSplit(t, math.MaxInt, 1)
	rng := rand.New(rand.NewSource(2701))
	stores := []*dal.Store{dal.Build(leafHypergraph(rng, 12, 50)), dal.Build(randGraphLike(rng, 10, 22, 10))}
	var lists, discs, overlaps, steps int
	stolen := false
	for _, store := range stores {
		for _, shape := range markShapes {
			p := pattern.MustNew(shape.edges, nil)
			want := oracleCount(t, store, p)
			for _, norestrict := range []bool{false, true} {
				opts := Options{NoSymmetryBreak: norestrict}
				plan, err := CompilePlan(store, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				w := newWorker(newShared(store, plan, opts), nil)
				last, bound := len(plan.Steps)-1, 0
				for b := 0; b < 40; b++ {
					if bound = bindRandomPrefix(w, rng, rng.Intn(bound+1), last); bound == 0 {
						continue
					}
					for k := 1; k <= bound; k++ {
						raw := rawCandidates(w, k)
						keep := baseline.Keep(store, plan, w.c[:k], raw)
						if got := w.candidates(k); !slices.Equal(got, keep) {
							t.Fatalf("%s, prefix %v: step %d keeps %v, the signature %v of %v\nplan:\n%s", shape.name, w.c[:k], k, got, keep, raw, plan)
						}
						if before := w.count; k == w.e.countedLeaf && w.countLeaf(k) && w.count-before != uint64(len(keep)) {
							t.Fatalf("%s, prefix %v: the last position counts %d, the signature keeps %v\nplan:\n%s", shape.name, w.c[:k], w.count-before, keep, plan)
						}
						steps++
					}
				}
				for i := range w.enodes {
					lists += len(w.enodes[i].mark.key)
					discs += len(w.enodes[i].disc.key)
				}
				for i := range w.vnodes {
					overlaps += len(w.vnodes[i].mark.key)
				}
				for _, workers := range []int{1, 2, 4} {
					res, err := Mine(store, p, Options{Workers: workers, NoSymmetryBreak: norestrict})
					if err != nil {
						t.Fatal(err)
					}
					if res.Ordered != want || res.Truncated {
						t.Fatalf("%s norestrict=%v workers=%d: Ordered=%d truncated=%v, want %d\nplan:\n%s", shape.name, norestrict, workers, res.Ordered, res.Truncated, want, res.Plan)
					}
					stolen = stolen || res.Stats.Steals > 0 && want > 0
				}
			}
		}
	}
	if lists == 0 || discs == 0 || overlaps == 0 || steps < 500 || !stolen {
		t.Fatalf("marks left keyed: %d list, %d Disc, %d overlap; %d steps checked, a prefix stolen %v: not what this test is for",
			lists, discs, overlaps, steps, stolen)
	}
}

// denseBlocks mirrors the mine_dense benchmark's hypergraph at a small scale:
// per core size c, a clique block of k hyperedges sharing a core of c
// contiguous vertices, and hub pairs sharing c+3 with pendants off one side.
func denseBlocks(cores []int, k, hubs, pendants int) *dal.Store {
	var edges [][]uint32
	span := func(base, n int) []uint32 {
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(base + i)
		}
		return s
	}
	next := 0
	for _, c := range cores {
		for i := 0; i < k; i++ {
			edges = append(edges, append(span(next, c), uint32(next+c+i)))
		}
		next += c + k
		hc := c + 3
		leaf := next + hubs*(hc+2)
		for h := 0; h < hubs; h++ {
			base := next + h*(hc+2)
			edges = append(edges, append(span(base, hc), uint32(base+hc)), append(span(base, hc), uint32(base+hc+1)))
			for j := 0; j < pendants; j++ {
				edges = append(edges, []uint32{uint32(base + hc), uint32(leaf)})
				leaf++
			}
		}
		next = leaf
	}
	return dal.Build(hypergraph.MustBuild(next, edges, nil))
}

// TestWindowedRunMarksNoVertices: where every overlap a condition reads
// carries a bitmap window — the dense benchmark's blocks of contiguous IDs,
// whose 1.8 M vertices would cost 225 KB per vertex mark — the conditions
// keep the window kernels and no worker allocates a vertex mark. On a sparse
// store the same condition does mark its overlap.
func TestWindowedRunMarksNoVertices(t *testing.T) {
	const k, hubs, pendants = 10, 6, 3
	dense := denseBlocks([]int{64, 72}, k, hubs, pendants)
	clique := func(c, j int) [][]uint32 {
		edges := make([][]uint32, j)
		for i := range edges {
			for v := 0; v < c; v++ {
				edges[i] = append(edges[i], uint32(v))
			}
			edges[i] = append(edges[i], uint32(c+i))
		}
		return edges
	}
	hub := append(clique(67, 2), []uint32{67, 69}) // A ∩ B = core, A ∩ C = {67}, B ∩ C = ∅
	mine := func(store *dal.Store, edges [][]uint32, norestrict bool) (uint64, *worker) {
		p := pattern.MustNew(edges, nil)
		opts := Options{NoSymmetryBreak: norestrict}
		plan, err := CompilePlan(store, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		w := newWorker(newShared(store, plan, opts), nil)
		w.explore(0, firstCandidates(store, plan, opts))
		return w.count, w
	}
	for _, c := range []struct {
		name       string
		edges      [][]uint32
		norestrict bool
		want       uint64
	}{
		{"triangle", clique(64, 3), false, k * (k - 1) * (k - 2) / 6},
		{"4-clique", clique(64, 4), false, k * (k - 1) * (k - 2) * (k - 3) / 24},
		{"triangle nosym", clique(64, 3), true, k * (k - 1) * (k - 2)},
		{"hub", hub, false, hubs * pendants},
	} {
		n, w := mine(dense, c.edges, c.norestrict)
		if n != c.want {
			t.Fatalf("%s: %d enumerated, want %d", c.name, n, c.want)
		}
		for i := range w.vnodes {
			if w.vnodes[i].mark.key != nil {
				t.Fatalf("%s: a vertex mark over %d vertices for overlap %b\nplan:\n%s", c.name, dense.Hypergraph().NumVertices(), w.e.vdefs[i].m, w.e.plan)
			}
		}
	}
	_, w := mine(dal.Build(leafHypergraph(rand.New(rand.NewSource(2702)), 9, 28)), leafShapes[0].edges, false)
	if !slices.ContainsFunc(w.vnodes, func(n node) bool { return n.mark.key != nil }) {
		t.Fatal("the core triangle marks no overlap on a sparse store: the check above proves nothing")
	}
}
