package motif

import (
	"context"
	"testing"

	"ohminer/internal/bruteforce"
	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
)

// pathFixture: a path of five 2-vertex hyperedges.
func pathFixture(t *testing.T) *dal.Store {
	t.Helper()
	h := hypergraph.MustBuild(6, [][]uint32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
	}, nil)
	return dal.Build(h)
}

func TestCensusPathGraph(t *testing.T) {
	store := pathFixture(t)
	entries, err := Census(context.Background(), store, Options{K: 2, MaxRegionSize: 2, MaxVertices: 4,
		Engine: engine.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// The only 2-edge motif present is two 2-vertex edges sharing one
	// vertex: 4 adjacent pairs on a 5-edge path.
	var hits int
	for _, e := range entries {
		if e.Unique > 0 {
			hits++
			if e.Unique != 4 {
				t.Fatalf("motif %s count %d want 4", e.Shape, e.Unique)
			}
			if e.Pattern.Degree(0) != 2 || e.Pattern.Degree(1) != 2 {
				t.Fatalf("unexpected shape matched: %s", e.Shape)
			}
			// Cross-check against brute force.
			if bf := bruteforce.Count(store.Hypergraph(), e.Pattern); bf != e.Ordered {
				t.Fatalf("census %d vs brute force %d", e.Ordered, bf)
			}
		}
	}
	if hits != 1 {
		t.Fatalf("%d motifs matched, want 1", hits)
	}
	// Sorted descending by count.
	for i := 1; i < len(entries); i++ {
		if entries[i].Unique > entries[i-1].Unique {
			t.Fatal("census not sorted")
		}
	}
}

// TestCensusSkipAbsentDegrees: a shape with a hyperedge degree the path
// lacks (every data hyperedge has two vertices) gets a zero entry without a
// run, and that zero is what mining the shape counts.
func TestCensusSkipAbsentDegrees(t *testing.T) {
	store := pathFixture(t)
	entries, err := Census(context.Background(), store, Options{K: 2, MaxRegionSize: 2, MaxVertices: 4,
		Engine: engine.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, e := range entries {
		if !absentDegree(store, e.Pattern) {
			continue
		}
		skipped++
		if e.Ordered != 0 || e.Unique != 0 || e.Elapsed != 0 || e.Truncated {
			t.Fatalf("skipped shape %s has entry %+v, want zero", e.Shape, e)
		}
		res, err := engine.Mine(store, e.Pattern, engine.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ordered != e.Ordered || res.Unique != e.Unique {
			t.Fatalf("skipped shape %s: entry %d/%d, mining counts %d/%d", e.Shape, e.Ordered, e.Unique, res.Ordered, res.Unique)
		}
	}
	if skipped == 0 {
		t.Fatal("no shape skipped: the fixture no longer lacks a degree")
	}
}

func TestFrequent(t *testing.T) {
	entries := []Entry{{Unique: 10}, {Unique: 3}, {Unique: 0}}
	if got := Frequent(entries, 3); len(got) != 2 {
		t.Fatalf("frequent: %d", len(got))
	}
	if got := Frequent(entries, 100); len(got) != 0 {
		t.Fatalf("frequent: %d", len(got))
	}
}

func TestProfileSimilarity(t *testing.T) {
	mk := func(seed int64) []Entry {
		h := gen.MustGenerate(gen.Config{Name: "p", NumVertices: 90, NumEdges: 250,
			Communities: 6, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 5, EdgeSizeMean: 3, Seed: seed})
		entries, err := Census(context.Background(), dal.Build(h), Options{K: 2, MaxRegionSize: 2, MaxVertices: 6,
			Engine: engine.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return entries
	}
	a := mk(1)
	b := mk(2)
	// Same generator family → high similarity; identity → 1.
	self, err := Profile(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if self < 0.999 {
		t.Fatalf("self similarity %f", self)
	}
	cross, err := Profile(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if cross <= 0 || cross > 1.0000001 {
		t.Fatalf("cross similarity %f", cross)
	}
	if _, err := Profile(a, a[:1]); err == nil {
		t.Fatal("size mismatch accepted")
	}
}
