package ohminer_test

import (
	"fmt"

	"ohminer"
)

// ExampleMine mines the paper's running example: the Figure 1(a) pattern
// has exactly one embedding in the Figure 1(b) hypergraph.
func ExampleMine() {
	h, _ := ohminer.BuildHypergraph(15, [][]uint32{
		{0, 1, 2, 3, 4, 5},
		{3, 4, 5, 6, 7, 8},
		{3, 4, 5, 6, 7, 9, 10, 11},
		{0, 1, 2, 9, 12, 13},
		{1, 3, 4, 5, 6, 7, 8, 14},
	}, nil)
	store := ohminer.NewStore(h)
	p, _ := ohminer.ParsePattern("0 1 2 3 4 5; 3 4 5 6 7 8; 3 4 5 6 7 9 10 11")
	res, _ := ohminer.Mine(store, p, ohminer.WithWorkers(1))
	fmt.Println(res.Unique)
	// Output: 1
}

// ExampleParsePattern shows the pattern literal syntax: hyperedges
// separated by semicolons.
func ExampleParsePattern() {
	p, _ := ohminer.ParsePattern("0 1 2; 2 3; 3 4 5")
	fmt.Println(p.NumEdges(), p.NumVertices())
	// Output: 3 6
}

// ExampleCompilePattern inspects the overlap-centric execution plan of a
// triangle of 2-vertex hyperedges: three pairwise overlaps and an empty
// triple. Candidate generation guarantees the pairwise sizes, so one
// condition is left, at the last step: |c0 ∩ c1 ∩ c2| = 0.
func ExampleCompilePattern() {
	p, _ := ohminer.ParsePattern("0 1; 1 2; 0 2")
	plan, _ := ohminer.CompilePattern(p)
	fmt.Println(len(plan.Steps), "steps, conditions per step:", plan.NumOps())
	// Output: 3 steps, conditions per step: [0 0 1]
}

// ExampleMine_variants runs the HGMatch baseline on the same query; counts
// always agree, only the time differs.
func ExampleMine_variants() {
	h, _ := ohminer.BuildHypergraph(5, [][]uint32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4},
	}, nil)
	store := ohminer.NewStore(h)
	p, _ := ohminer.ParsePattern("0 1; 1 2")
	a, _ := ohminer.Mine(store, p)
	b, _ := ohminer.MineBaseline(store, p, "HGMatch", 1)
	fmt.Println(a.Unique, a.Ordered == b.Ordered)
	// Output: 3 true
}
