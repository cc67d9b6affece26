package engine

import (
	"math/rand"
	"testing"

	"ohminer/internal/bruteforce"
	"ohminer/internal/dal"
	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// TestDataAwareOrderCorrectness: the data-aware matching order must not
// change results, only (potentially) performance.
func TestDataAwareOrderCorrectness(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "o", NumVertices: 60, NumEdges: 150,
		Communities: 4, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 6, EdgeSizeMean: 3.5, Seed: 101})
	store := dal.Build(h)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		p, err := pattern.Sample(h, 2+rng.Intn(3), 2, 25, rng)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteforce.Count(h, p)
		for _, da := range []bool{false, true} {
			res, err := Mine(store, p, Options{Workers: 1, DataAwareOrder: da})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ordered != want {
				t.Fatalf("trial %d dataAware=%v: %d want %d (pattern %s, order %v)",
					trial, da, res.Ordered, want, p, res.Plan.Order)
			}
		}
	}
}

// TestDataAwareOrderPlansVerify: data-aware plans satisfy the structural
// verifier for both modes.
func TestDataAwareOrderPlansVerify(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "o", NumVertices: 100, NumEdges: 300,
		Communities: 6, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 8, EdgeSizeMean: 4, Seed: 102})
	store := dal.Build(h)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		p, err := pattern.Sample(h, 2+rng.Intn(4), 2, 30, rng)
		if err != nil {
			t.Fatal(err)
		}
		order := dataAwareOrder(store, p)
		for _, mode := range []oig.Mode{oig.ModeSimple, oig.ModeMerged} {
			plan, err := oig.CompileOrdered(p, mode, order)
			if err != nil {
				t.Fatal(err)
			}
			if err := oig.VerifyProgram(plan); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// TestDataAwareOrderPicksSelectiveRoot: with a degree that is rare in the
// data, the data-aware order must start with it.
func TestDataAwareOrderPicksSelectiveRoot(t *testing.T) {
	// Data: many degree-2 edges, exactly one degree-4 edge.
	edges := [][]uint32{{0, 1, 2, 3}}
	for i := uint32(0); i < 20; i++ {
		edges = append(edges, []uint32{i % 10, (i + 1) % 10})
	}
	h, err := hypergraph.Build(10, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := dal.Build(h)
	// Pattern: a degree-2 edge overlapping a degree-4 edge.
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2, 3, 4}}, nil)
	order := dataAwareOrder(store, p)
	if order[0] != 1 {
		t.Fatalf("data-aware order %v should start with the rare degree-4 edge", order)
	}
}
