package oig_test

import (
	"fmt"

	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// ExampleCompile compiles the paper's Figure 1(a) pattern. Candidate
// generation guarantees every pairwise overlap size, so of Table 1's plan one
// condition is left: the merged node's other pair, c0 ∩ c2, must be the
// representative c0 ∩ c1, which the third hyperedge containing it settles.
// Without a store the order is chosen by cost on flat statistics: pe1, pe3,
// pe2.
func ExampleCompile() {
	p := pattern.MustNew([][]uint32{
		{0, 1, 2, 3, 4, 5},
		{3, 4, 5, 6, 7, 8},
		{3, 4, 5, 6, 7, 9, 10, 11},
	}, nil)
	plan, err := oig.Compile(p, oig.ModeMerged)
	if err != nil {
		panic(err)
	}
	fmt.Println("steps:", len(plan.Steps))
	fmt.Println("generation overlaps:", plan.Steps[1].ConnOverlap, plan.Steps[2].ConnOverlap)
	fmt.Println("conditions per step:", plan.NumOps())
	fmt.Println("verified:", oig.VerifyProgram(plan) == nil)
	fmt.Print(plan)
	// Output:
	// steps: 3
	// generation overlaps: [3] [3 5]
	// conditions per step: [0 0 1]
	// verified: true
	// plan(mode=merged, order=[0 2 1])
	// step 0: gen degree=6 conn=[] disc=[]
	// step 1: gen degree=8 conn=[0:3] disc=[]
	// step 2: gen degree=6 conn=[0:3 1:5] disc=[]
	//   |c0 ∩ c1 ∩ c2| = 3
}

// ExampleBuildGraph shows the OIG of a triangle of 2-vertex hyperedges:
// three hyperedges and three pairwise overlaps; the empty triple overlap is
// not a node (it becomes an emptiness check in the plan).
func ExampleBuildGraph() {
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {0, 2}}, nil)
	g := oig.BuildGraph(p.Edges())
	fmt.Println("levels:", g.NumLevels())
	fmt.Println("level-1 nodes:", len(g.Levels[0]), "level-2 nodes:", len(g.Levels[1]))
	// Output:
	// levels: 2
	// level-1 nodes: 3 level-2 nodes: 3
}
