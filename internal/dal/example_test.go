package dal_test

import (
	"fmt"

	"ohminer/internal/dal"
	"ohminer/internal/hypergraph"
)

// ExampleStore_AdjSet reproduces Table 2: e1's adjacency list, grouped by
// neighbor degree and overlap size, answers "which hyperedges of degree 8
// share exactly three vertices with e1?" without touching any vertex's
// incident list or intersecting any pair of hyperedges.
func ExampleStore_AdjSet() {
	h := hypergraph.MustBuild(15, [][]uint32{
		{0, 1, 2, 3, 4, 5},         // e1 (ID 0), degree 6
		{3, 4, 5, 6, 7, 8},         // e2 (ID 1), degree 6
		{3, 4, 5, 6, 7, 9, 10, 11}, // e3 (ID 2), degree 8
		{0, 1, 2, 9, 12, 13},       // e4 (ID 3), degree 6
		{1, 3, 4, 5, 6, 7, 8, 14},  // e5 (ID 4), degree 8
	}, nil)
	store := dal.Build(h)
	fmt.Println("A(e1):", store.Adj(0))
	fmt.Println("A(e1) degree 6, overlap 3:", store.AdjSet(0, 6, 3).Elems())
	fmt.Println("A(e1) degree 8, overlap 3:", store.AdjSet(0, 8, 3).Elems())
	fmt.Println("A(e1) degree 8, overlap 4:", store.AdjSet(0, 8, 4).Elems())
	fmt.Println("e1 and e3 connected:", store.Connected(0, 2))
	// Output:
	// A(e1): [1 3 2 4]
	// A(e1) degree 6, overlap 3: [1 3]
	// A(e1) degree 8, overlap 3: [2]
	// A(e1) degree 8, overlap 4: [4]
	// e1 and e3 connected: true
}
