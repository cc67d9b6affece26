package motif_test

import (
	"context"
	"fmt"

	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/hypergraph"
	"ohminer/internal/motif"
)

// ExampleCensus counts every 2-hyperedge motif class on a 5-edge path: the
// only occurring class is "two 2-vertex hyperedges sharing one vertex",
// four times.
func ExampleCensus() {
	h := hypergraph.MustBuild(6, [][]uint32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
	}, nil)
	entries, err := motif.Census(context.Background(), dal.Build(h), motif.Options{
		K: 2, MaxRegionSize: 2, MaxVertices: 4,
		Engine: engine.Options{Workers: 1},
	})
	if err != nil {
		panic(err)
	}
	for _, e := range entries {
		if e.Unique > 0 {
			fmt.Println(e.Shape, "occurs", e.Unique, "times")
		}
	}
	// Output: shape{01:1 10:1 11:1} occurs 4 times
}
