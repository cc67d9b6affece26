package engine

import (
	"fmt"
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
			if err := oig.Verify(plan); err != nil {
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
