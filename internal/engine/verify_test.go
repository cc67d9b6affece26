package engine

import (
	"context"
	"math/rand"
	"testing"

	"ohminer/internal/dal"
	"ohminer/internal/gen"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
	"ohminer/internal/venn"
)

// TestEmittedEmbeddingsAreIsomorphic validates every emitted embedding
// against the venn package's Theorem-1 checker — the executable
// specification — rather than trusting the engine's own plan checks.
// Embeddings arrive in matching order, so they are compared against the
// plan's reordered pattern.
func TestEmittedEmbeddingsAreIsomorphic(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "v", NumVertices: 120, NumEdges: 400,
		Communities: 8, MemberOverlap: 1.2, EdgeSizeMin: 2, EdgeSizeMax: 8, EdgeSizeMean: 4, Seed: 61})
	store := dal.Build(h)
	rng := rand.New(rand.NewSource(21))
	verified := 0
	for trial := 0; trial < 12; trial++ {
		p, err := pattern.Sample(h, 2+rng.Intn(3), 2, 30, rng)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := oig.Compile(p, oig.ModeMerged)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		_, err = MineWithPlanContext(context.Background(), store, plan, Options{Workers: 1, OnEmbedding: func(c []uint32) {
			if checked >= 50 { // cap the expensive per-embedding verification
				return
			}
			checked++
			emb := make([][]uint32, len(c))
			for i, e := range c {
				emb[i] = h.EdgeVertices(e)
			}
			iso, verr := venn.Isomorphic(plan.Pattern.Edges(), emb)
			if verr != nil {
				t.Errorf("venn: %v", verr)
				return
			}
			if !iso {
				t.Errorf("trial %d: emitted non-isomorphic embedding %v for pattern %s",
					trial, c, plan.Pattern)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		verified += checked
	}
	if verified == 0 {
		t.Skip("no embeddings produced by any trial")
	}
	t.Logf("verified %d embeddings against the Theorem-1 specification", verified)
}
