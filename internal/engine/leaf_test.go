package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ohminer/internal/dal"
	"ohminer/internal/hypergraph"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// This file covers the last position that carries ops and is still counted:
// translateLeaf restates each op as |c_t ∩ Y| = want (leaf.go) and countLeaf
// filters generation's candidates by those conditions instead of visiting
// them. internal/baseline and brute force are the oracles.

// leafShapes holds one pattern per row of the translation table, with the
// number of conditions its last step becomes (0 where generation implies
// every op).
var leafShapes = []struct {
	name  string
	edges [][]uint32
	order []int // matching order; nil = the structural one
	conds int
}{
	{"core triangle: s0 ⊆ c2", [][]uint32{{0, 1, 2}, {0, 1, 3}, {0, 1, 4}}, nil, 1},
	{"core 4-clique: s0 ⊆ c3, Y read at positions 0 and 1", [][]uint32{{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {0, 1, 5}}, nil, 1},
	{"graph triangle: s0 ∩ c2 == ∅", [][]uint32{{0, 1}, {1, 2}, {0, 2}}, nil, 1},
	{"s0 ⊆ c1 for s0 = c0 ∩ c2 of size 1: Y = c0 ∩ c1, 0 < want < |Y|", [][]uint32{{0, 1, 2}, {0, 1, 3}, {0, 4, 5}}, nil, 1},
	{"|s0 ∩ s1| = 1 for s1 = c1 ∩ c2: Y = s0 ∩ c1, 0 < want < |Y|", [][]uint32{{0, 1, 2, 3}, {0, 1, 4, 5}, {0, 2, 4, 6}}, nil, 1},
	{"c1 ⊆ c0, implied by generation", [][]uint32{{0, 1, 2}, {0, 1}}, nil, 0},
	{"c0 ⊆ c1, implied by generation", [][]uint32{{0, 1}, {0, 1, 2}}, []int{0, 1}, 0},
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
// and 4 workers that publish at every depth (SplitThreshold 1), so that the
// cached Y of a worker meets bindings rebound by a steal.
func TestLeafShapesDifferential(t *testing.T) {
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
					opts := Options{Workers: workers, NoSymmetryBreak: norestrict, SplitThreshold: 1, SplitDepth: p.NumEdges()}
					plan, err := CompilePlanOrdered(store, p, shape.order, opts)
					if err != nil {
						t.Fatal(err)
					}
					e := newShared(store, plan, opts)
					if last := len(plan.Steps) - 1; len(plan.Steps[last].Ops) == 0 || e.countedLeaf != last || len(e.leafConds) != shape.conds {
						t.Fatalf("%s: counted leaf %d with %d conditions, want position %d with %d\nplan:\n%s", shape.name, e.countedLeaf, len(e.leafConds), last, shape.conds, plan)
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

// TestLeafRefusedFormsFallBack: a last step whose ops include an equality,
// a pattern with vertex or hyperedge labels, and a run with OnEmbedding or a
// PositionFilter all visit the last position — and still count exactly.
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
		name  string
		store *dal.Store
		p     *pattern.Pattern
		kind  oig.OpKind // an op the last step must carry
	}{
		{"c3 == s1", store, pattern.MustNew([][]uint32{{0, 1, 3}, {0, 2, 3}, {0, 2}, {0, 2, 4}}, nil), oig.OpEqCheck},
		{"s3 ← s0 ∩ s1, == s2", store, pattern.MustNew([][]uint32{{0, 3, 4, 5}, {0, 1, 3}, {0, 1, 2, 3}, {2, 3, 4}}, nil), oig.OpIntersectEq},
		{"vertex labels", labelled, pattern.MustNew(core, []uint32{0, 0, 1, 0, 1}), oig.OpSubsetCheck},
		{"hyperedge labels", edgeLabelled, edgeLabelledCore, oig.OpSubsetCheck},
	}
	for _, c := range cases {
		plan, err := CompilePlan(c.store, c.p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		last := plan.Steps[len(plan.Steps)-1]
		if !slices.ContainsFunc(last.Ops, func(op oig.Op) bool { return op.Kind == c.kind }) || newShared(c.store, plan, Options{}).countedLeaf >= 0 {
			t.Fatalf("%s: want a %v op at a last position that is not counted\nplan:\n%s", c.name, c.kind, plan)
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

// blockStore is a clique block: k hyperedges sharing the core {0, 1}, each
// with a private vertex, so that any j of them match the core j-clique.
func blockStore(k uint32) *dal.Store {
	var edges [][]uint32
	for i := uint32(0); i < k; i++ {
		edges = append(edges, []uint32{0, 1, 2 + i})
	}
	return dal.Build(hypergraph.MustBuild(int(k)+2, edges, nil))
}

// randLeafPattern draws a pattern of three or four hyperedges of two to four
// vertices; nil when the draw is not a valid pattern.
func randLeafPattern(rng *rand.Rand) *pattern.Pattern {
	m, nv := 3+rng.Intn(2), 4+rng.Intn(4)
	edges := make([][]uint32, m)
	for i := range edges {
		for _, v := range rng.Perm(nv)[:2+rng.Intn(3)] {
			edges[i] = append(edges[i], uint32(v))
		}
		slices.Sort(edges[i])
	}
	p, err := pattern.New(edges, nil)
	if err != nil {
		return nil
	}
	return p
}

// TestLeafConditionsMatchInterpreter: on random plans and random bindings of
// their prefix, the leaf conditions keep exactly the candidates that accept
// and validateOverlaps keep. The prefix is drawn from generation position by
// position, unvalidated, and redrawn from a random position on, so that a
// condition's cached Y is hit by some bindings and rebuilt for others.
func TestLeafConditionsMatchInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(2503))
	stores := []*dal.Store{dal.Build(leafHypergraph(rng, 10, 40)), dal.Build(leafHypergraph(rng, 8, 30)), blockStore(9)}
	plans, kept, rejected := 0, 0, 0
	for draw := 0; draw < 4000 && plans < 120; draw++ {
		p := randLeafPattern(rng)
		if p == nil {
			continue
		}
		store := stores[draw%len(stores)]
		opts := Options{NoSymmetryBreak: rng.Intn(2) == 0}
		plan, err := CompilePlan(store, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		e := newShared(store, plan, opts)
		if len(e.leafConds) == 0 {
			continue
		}
		plans++
		w := newWorker(e, nil)
		last := len(plan.Steps) - 1
		bound := false
		for b := 0; b < 60; b++ {
			from := 0
			if bound {
				from = rng.Intn(last)
			}
			if bound = bindRandomPrefix(w, rng, from, last); !bound {
				continue
			}
			w.rebuildSlots(last)
			cands := slices.Clone(w.subtractDisc(last, w.generateDAL(last)))
			var want []uint32
			for _, c := range cands {
				if w.accept(last, c) {
					w.c[last] = c
					if w.validateOverlaps(last) {
						want = append(want, c)
					}
				}
			}
			got := slices.Clone(cands)
			got = w.filterLeaf(got[w.restrictedBelow(&plan.Steps[last], got):])
			got = slices.DeleteFunc(got, func(c uint32) bool { return slices.Contains(w.c[:last], c) })
			if !slices.Equal(got, want) {
				t.Fatalf("pattern %s, prefix %v: conditions keep %v, the interpreter %v of %v\nconditions %+v\nplan:\n%s",
					p, w.c[:last], got, want, cands, e.leafConds, plan)
			}
			kept += len(want)
			rejected += len(cands) - len(want)
		}
	}
	if plans < 60 || kept < 200 || rejected < 200 {
		t.Fatalf("%d plans with leaf conditions, %d candidates kept and %d rejected: too few to mean anything", plans, kept, rejected)
	}
}

// bindRandomPrefix rebinds positions from..last-1 of w to random candidates
// that generation offers there and that are not bound already; it reports
// false when some position has none.
func bindRandomPrefix(w *worker, rng *rand.Rand, from, last int) bool {
	for k := from; k < last; k++ {
		var cands []uint32
		if k == 0 {
			cands = w.e.store.EdgesWithDegree(w.e.plan.Steps[0].Degree)
		} else {
			cands = w.subtractDisc(k, w.generateDAL(k))
		}
		cands = slices.DeleteFunc(slices.Clone(cands), func(c uint32) bool { return slices.Contains(w.c[:k], c) })
		if len(cands) == 0 {
			return false
		}
		w.c[k] = cands[rng.Intn(len(cands))]
	}
	return true
}
