package pattern

import (
	"math/rand"
	"testing"

	"ohminer/internal/gen"
)

func TestEnumerateShapesK2(t *testing.T) {
	// K=2, region sizes ≤ 2, ≤ 6 vertices. Regions: A\B, B\A, A∩B with
	// A∩B ≥ 1 (connectivity) and the symmetric (a,b) ~ (b,a) pairs merged,
	// plus the both-empty-differences case is invalid only when it makes
	// the edges identical (A\B = B\A = 0).
	shapes, err := EnumerateShapes(2, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Valid canonical vectors (a ≤ b outside sizes, c ≥ 1, not both a=b=0):
	// (0,1,c),(0,2,c),(1,1,c),(1,2,c),(2,2,c) × c ∈ {1,2} = 10.
	if len(shapes) != 10 {
		for _, s := range shapes {
			t.Log(s)
		}
		t.Fatalf("K=2 shapes: %d want 10", len(shapes))
	}
	for _, s := range shapes {
		p, err := s.Pattern()
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if got := ShapeOf(p); got.Key() != s.Key() {
			t.Fatalf("roundtrip: %s → %s", s, got)
		}
	}
}

func TestEnumerateShapesErrors(t *testing.T) {
	if _, err := EnumerateShapes(0, 1, 5); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := EnumerateShapes(5, 1, 5); err == nil {
		t.Error("k=5 accepted")
	}
	if _, err := EnumerateShapes(2, 0, 5); err == nil {
		t.Error("maxRegion=0 accepted")
	}
}

// TestShapeOfInvariantUnderReorder: sampled patterns map to the same shape
// after any hyperedge permutation.
func TestShapeOfInvariantUnderReorder(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "s", NumVertices: 80, NumEdges: 300,
		Communities: 5, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 6, EdgeSizeMean: 4, Seed: 71})
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		p, err := Sample(h, 3, 2, 18, rng)
		if err != nil {
			t.Fatal(err)
		}
		base := ShapeOf(p).Key()
		orders := [][]int{{1, 0, 2}, {2, 1, 0}, {1, 2, 0}}
		for _, ord := range orders {
			rp, err := p.Reorder(ord)
			if err != nil {
				t.Fatal(err)
			}
			if got := ShapeOf(rp).Key(); got != base {
				t.Fatalf("shape changed under reorder %v: %s vs %s (pattern %s)", ord, got, base, p)
			}
		}
	}
}

func TestShapeAccessors(t *testing.T) {
	shapes, err := EnumerateShapes(2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shapes {
		if s.NumVertices() < 1 || s.NumVertices() > 4 {
			t.Fatalf("%s vertices %d", s, s.NumVertices())
		}
		if s.String() == "" || s.Key() == "" {
			t.Fatal("empty rendering")
		}
	}
}
