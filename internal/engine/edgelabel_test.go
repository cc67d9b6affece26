package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"ohminer/internal/bruteforce"
	"ohminer/internal/dal"
	"ohminer/internal/hypergraph"
	"ohminer/internal/pattern"
)

// TestEdgeLabeledBasics checks the hyperedge-labeled extension (Sec. 4.3.1)
// on a hand-built case: two hyperedges with identical vertex sets but
// different labels are distinct, and patterns select by label.
func TestEdgeLabeledBasics(t *testing.T) {
	h, err := hypergraph.BuildEdgeLabeled(6,
		[][]uint32{
			{0, 1, 2}, // label 0 ("meeting")
			{0, 1, 2}, // label 1 ("email")  — same vertices, kept distinct
			{2, 3, 4}, // label 0
			{2, 3, 5}, // label 1
		},
		nil,
		[]uint32{0, 1, 0, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 4 || !h.EdgeLabeled() {
		t.Fatalf("built %s with %d edges", h, h.NumEdges())
	}
	store := dal.Build(h)

	// Unlabeled pattern: a pair of overlapping 3-vertex edges.
	up := pattern.MustNew([][]uint32{{0, 1, 2}, {2, 3, 4}}, nil)
	ur, err := Mine(store, up, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteforce.Count(h, up); ur.Ordered != want {
		t.Fatalf("unlabeled: %d want %d", ur.Ordered, want)
	}

	// Edge-labeled pattern: a label-0 edge overlapping a label-1 edge in
	// one vertex.
	lp, err := pattern.NewEdgeLabeled([][]uint32{{0, 1, 2}, {2, 3, 4}}, nil, []uint32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := Mine(store, lp, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteforce.Count(h, lp); lr.Ordered != want {
		t.Fatalf("edge-labeled: %d want %d", lr.Ordered, want)
	}
	if lr.Ordered == 0 || lr.Ordered >= ur.Ordered {
		t.Fatalf("edge labels should prune: labeled=%d unlabeled=%d", lr.Ordered, ur.Ordered)
	}
}

// TestEdgeLabeledDifferential holds the engine to the oracles on random
// hyperedge-labeled inputs.
func TestEdgeLabeledDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 25; trial++ {
		nv := 10 + rng.Intn(20)
		ne := 15 + rng.Intn(30)
		edges := make([][]uint32, ne)
		elabels := make([]uint32, ne)
		for i := range edges {
			sz := 2 + rng.Intn(4)
			for j := 0; j < sz; j++ {
				edges[i] = append(edges[i], uint32(rng.Intn(nv)))
			}
			elabels[i] = uint32(rng.Intn(2))
		}
		h, err := hypergraph.BuildEdgeLabeled(nv, edges, nil, elabels)
		if err != nil {
			t.Fatal(err)
		}
		store := dal.Build(h)
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
		mineAll(t, store, p, oracleCount(t, store, p), fmt.Sprintf("edge-labeled trial %d", trial))
	}
}

func TestEdgeLabeledErrors(t *testing.T) {
	store, _ := fig1(t) // unlabeled hypergraph
	p, err := pattern.NewEdgeLabeled([][]uint32{{0, 1}, {1, 2}}, nil, []uint32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mine(store, p, Options{}); err == nil {
		t.Fatal("edge-labeled pattern accepted on unlabeled hypergraph")
	}
}

func TestEdgeLabeledAutomorphisms(t *testing.T) {
	// Symmetric path: labels on the end edges break or keep the symmetry.
	sym, err := pattern.NewEdgeLabeled([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil, []uint32{5, 9, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := sym.Automorphisms(); got != 2 {
		t.Fatalf("symmetric labels: automorphisms=%d want 2", got)
	}
	asym, err := pattern.NewEdgeLabeled([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil, []uint32{5, 9, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := asym.Automorphisms(); got != 1 {
		t.Fatalf("asymmetric labels: automorphisms=%d want 1", got)
	}
}

// TestDuplicateSetDistinctLabels: a pattern with two identical vertex sets
// under different labels is legal and matches pairs of co-extensive data
// hyperedges.
func TestDuplicateSetDistinctLabels(t *testing.T) {
	h, err := hypergraph.BuildEdgeLabeled(4,
		[][]uint32{{0, 1, 2}, {0, 1, 2}, {1, 2, 3}},
		nil, []uint32{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	store := dal.Build(h)
	p, err := pattern.NewEdgeLabeled([][]uint32{{0, 1, 2}, {0, 1, 2}}, nil, []uint32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := oracleCount(t, store, p)
	if want != 1 {
		t.Fatalf("brute force: %d want 1", want)
	}
	mineAll(t, store, p, want, "co-extensive pair")
	// An unlabeled pattern with duplicate sets is still rejected.
	if _, err := pattern.New([][]uint32{{0, 1, 2}, {0, 1, 2}}, nil); err == nil {
		t.Fatal("duplicate unlabeled edges accepted")
	}
}
