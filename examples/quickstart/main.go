// Quickstart: build a tiny hypergraph, mine a 3-hyperedge pattern, and
// print the embeddings — the five-minute tour of the public API.
package main

import (
	"fmt"
	"log"

	"ohminer"
)

func main() {
	// A small hypergraph: 15 vertices, 5 hyperedges (the paper's running
	// example from Figure 1(b)).
	h, err := ohminer.BuildHypergraph(15, [][]uint32{
		{0, 1, 2, 3, 4, 5},         // e1
		{3, 4, 5, 6, 7, 8},         // e2
		{3, 4, 5, 6, 7, 9, 10, 11}, // e3
		{0, 1, 2, 9, 12, 13},       // e4
		{1, 3, 4, 5, 6, 7, 8, 14},  // e5
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("data:", h)

	// The degree-aware data store is built once and reused across queries.
	store := ohminer.NewStore(h)

	// The Figure 1(a) pattern: three hyperedges with a 3-vertex common
	// overlap; pe2∩pe3 has 5 vertices.
	p, err := ohminer.ParsePattern("0 1 2 3 4 5; 3 4 5 6 7 8; 3 4 5 6 7 9 10 11")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pattern: %s (%d hyperedges, %d vertices)\n", p, p.NumEdges(), p.NumVertices())

	// Inspect the compiled overlap-centric execution plan (Table 1). Without
	// a store the matching order is chosen on flat statistics; Mine chooses
	// its own on the store, and reports it in res.Plan.
	plan, err := ohminer.CompilePattern(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled in %v:\n%s\n", plan.CompileTime, plan)

	// Mine, collecting every embedding.
	res, err := ohminer.Mine(store, p, ohminer.WithEmbeddings(func(edges []uint32) {
		fmt.Println("embedding (hyperedge IDs in matching order):", edges)
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d unique embedding(s) in %v, matching order %v\n", res.Unique, res.Elapsed, res.Plan.Order)
}
