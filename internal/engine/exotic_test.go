package engine

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"ohminer/internal/dal"
	"ohminer/internal/hypergraph"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// exoticPatterns are handcrafted to hit the merged compiler's rare paths,
// which random sampling almost never produces:
//
//   - nested hyperedges (pe1 ⊂ pe0): subset checks replace intersections;
//   - a hyperedge equal to an overlap (pe2 == pe0∩pe1): OpEqCheck;
//   - a class whose union covers a hyperedge outside all minimal members
//     (pe0∩pe1 == pe0∩pe1∩pe2 ⊊ pe0∩pe2): subset-completion OpSubsetCheck;
//   - two overlaps equal as sets with disjoint derivations: OpIntersectEq.
func exoticPatterns(t *testing.T) []*pattern.Pattern {
	t.Helper()
	return []*pattern.Pattern{
		// Nested: pe1 inside pe0.
		pattern.MustNew([][]uint32{{0, 1, 2, 3}, {1, 2}}, nil),
		// Doubly nested chain.
		pattern.MustNew([][]uint32{{0, 1, 2, 3, 4}, {1, 2, 3}, {2, 3}}, nil),
		// pe2 equals the overlap of pe0 and pe1.
		pattern.MustNew([][]uint32{{0, 1, 2, 3}, {2, 3, 4, 5}, {2, 3}}, nil),
		// Subset completion: pe0∩pe1 = {3,4} = triple overlap, but
		// pe0∩pe2 and pe1∩pe2 are strictly larger.
		pattern.MustNew([][]uint32{
			{1, 2, 3, 4},
			{3, 4, 5, 6},
			{2, 3, 4, 5, 9},
		}, nil),
		// Equal overlaps from disjoint pairs: pe0∩pe1 == pe2∩pe3 == {4,5}.
		pattern.MustNew([][]uint32{
			{0, 1, 4, 5},
			{2, 3, 4, 5},
			{4, 5, 6, 7},
			{4, 5, 8, 9},
		}, nil),
	}
}

// TestExoticPatternsDifferential mines each exotic pattern on random
// hypergraphs seeded with genuine embeddings and near-misses, against the
// three oracles.
func TestExoticPatternsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for pi, p := range exoticPatterns(t) {
		// Plans must verify structurally.
		for _, mode := range []oig.Mode{oig.ModeSimple, oig.ModeMerged} {
			plan, err := oig.Compile(p, mode)
			if err != nil {
				t.Fatalf("pattern %d: %v", pi, err)
			}
			if err := oig.VerifyProgram(plan); err != nil {
				t.Fatalf("pattern %d mode %s: %v", pi, mode, err)
			}
		}
		for trial := 0; trial < 6; trial++ {
			h := plantedHypergraph(rng, p)
			store := dal.Build(h)
			want := oracleCount(t, store, p)
			if trial == 0 && want == 0 {
				t.Logf("pattern %d trial 0: no planted embedding survived (acceptable)", pi)
			}
			mineAll(t, store, p, want, fmt.Sprintf("pattern %d trial %d", pi, trial))
		}
	}
}

// plantedHypergraph embeds a vertex-renamed copy of the pattern into random
// noise, plus "near miss" copies with one vertex perturbed, so both the
// accept and reject paths of every plan op are exercised.
func plantedHypergraph(rng *rand.Rand, p *pattern.Pattern) *hypergraph.Hypergraph {
	const nv = 40
	var edges [][]uint32
	// Noise.
	for i := 0; i < 25; i++ {
		sz := 2 + rng.Intn(4)
		e := make([]uint32, sz)
		for j := range e {
			e[j] = uint32(rng.Intn(nv))
		}
		edges = append(edges, e)
	}
	// Planted copy with a random injective vertex renaming.
	perm := rng.Perm(nv)
	for i := 0; i < p.NumEdges(); i++ {
		e := make([]uint32, 0, p.Degree(i))
		for _, u := range p.Edge(i) {
			e = append(e, uint32(perm[u]))
		}
		edges = append(edges, e)
	}
	// Near-miss copy: same renaming shifted by one on a single vertex of
	// one edge (breaks one overlap size).
	perm2 := rng.Perm(nv)
	for i := 0; i < p.NumEdges(); i++ {
		e := make([]uint32, 0, p.Degree(i))
		for k, u := range p.Edge(i) {
			v := uint32(perm2[u])
			if i == 0 && k == 0 {
				v = uint32(perm2[(int(u)+1)%p.NumVertices()])
			}
			e = append(e, v)
		}
		edges = append(edges, e)
	}
	h, err := hypergraph.Build(nv, edges, nil)
	if err != nil {
		panic(err)
	}
	return h
}

// TestPairClassesDifferential: patterns in which two hyperedge pairs share
// one overlap class without sharing a hyperedge — e0∩e1 = e2∩e3 = {0,1} —
// while every cross pair overlaps in more. With the pair sizes guaranteed by
// generation, the merged plan settles the second pair by two conditions, the
// representative pair's overlap R inside each of its hyperedges — |R ∩ c_x|
// = |R| for both x: both are needed (dropping either over-counts on this data), since a data pair of
// the right size over a different vertex set passes either alone. The data
// is a sample of all hyperedges of the pattern's degree over as many vertices
// as it has, around two planted copies, so such near misses outnumber the
// embeddings.
func TestPairClassesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2101))
	for pi, p := range []*pattern.Pattern{
		pattern.MustNew([][]uint32{{0, 1, 2, 3, 4}, {0, 1, 5, 6, 7}, {0, 1, 2, 5, 8}, {0, 1, 3, 6, 9}}, nil),
		pattern.MustNew([][]uint32{{0, 1, 2, 3}, {0, 4, 5, 6}, {0, 1, 4, 7}, {0, 2, 5, 8}}, nil),
	} {
		plan, err := oig.Compile(p, oig.ModeMerged)
		if err != nil {
			t.Fatal(err)
		}
		if n := planConds(plan); n != 2 {
			t.Fatalf("pattern %d: plan does not take the two-containment route: %d conditions\n%s", pi, n, plan)
		}
		for trial := 0; trial < 1; trial++ {
			store := pairClassStore(rng, p)
			want := oracleCount(t, store, p)
			if want == 0 {
				t.Fatalf("pattern %d trial %d: the planted copies are gone", pi, trial)
			}
			mineAll(t, store, p, want, fmt.Sprintf("pair classes pattern %d trial %d", pi, trial))
		}
	}
}

// pairClassStore samples 24 of all hyperedges of p's first degree over as
// many vertices as p has, and plants two relabelled copies of p among them.
func pairClassStore(rng *rand.Rand, p *pattern.Pattern) *dal.Store {
	nv := p.NumVertices()
	var universe [][]uint32
	for mask := uint32(0); mask < 1<<nv; mask++ {
		if bits.OnesCount32(mask) == p.Degree(0) {
			var e []uint32
			for v := uint32(0); v < uint32(nv); v++ {
				if mask&(1<<v) != 0 {
					e = append(e, v)
				}
			}
			universe = append(universe, e)
		}
	}
	var edges [][]uint32
	for _, i := range rng.Perm(len(universe))[:24] {
		edges = append(edges, universe[i])
	}
	for copies := 0; copies < 2; copies++ {
		perm := rng.Perm(nv)
		for i := 0; i < p.NumEdges(); i++ {
			var e []uint32
			for _, u := range p.Edge(i) {
				e = append(e, uint32(perm[u]))
			}
			edges = append(edges, e)
		}
	}
	return dal.Build(hypergraph.MustBuild(nv, edges, nil))
}

// TestGenerationExcludesWrongOverlap: a connected data pair whose overlap is
// larger (or smaller) than the pattern's is never generated — the plan has no
// op left that could reject it afterwards.
func TestGenerationExcludesWrongOverlap(t *testing.T) {
	p := pattern.MustNew([][]uint32{{0, 1, 2}, {2, 3, 4}}, nil) // |e0∩e1| = 1
	plan, err := oig.Compile(p, oig.ModeMerged)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(plan.Steps[1].Conds); n != 0 {
		t.Fatalf("plan still validates the pair:\n%s", plan)
	}
	// Degree-3 hyperedges overlapping in two vertices only: connected, right
	// degrees, wrong overlap size.
	tooMuch := dal.Build(hypergraph.MustBuild(6, [][]uint32{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}}, nil))
	res, err := Mine(tooMuch, p, Options{Workers: 1, Instrument: true, NoSymmetryBreak: true})
	if err != nil {
		t.Fatal(err)
	}
	// {0,1,2}–{2,3,4} and {1,2,3}–{3,4,5} share one vertex; the three
	// neighbouring pairs share two and must not even be candidates.
	if res.Ordered != 4 || res.Stats.Candidates != 4 || res.Stats.SetOps != 0 {
		t.Fatalf("Ordered=%d Candidates=%d SetOps=%d, want 4/4/0", res.Ordered, res.Stats.Candidates, res.Stats.SetOps)
	}
	if want := oracleCount(t, tooMuch, p); want != res.Ordered {
		t.Fatalf("oracles count %d, engine %d", want, res.Ordered)
	}
	mineAll(t, tooMuch, p, res.Ordered, "overlap larger than the pattern's")
}
