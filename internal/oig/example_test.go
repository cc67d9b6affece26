package oig_test

import (
	"fmt"

	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// ExampleCompile compiles the paper's Figure 1(a) pattern. Candidate
// generation guarantees every pairwise overlap size, so of Table 1's plan one
// materialised intersection (the merged node's representative) and one
// containment check (the merged node's other pair) are left.
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
	ops := plan.NumOps()
	fmt.Println("steps:", len(plan.Steps))
	fmt.Println("generation overlaps:", plan.Steps[1].ConnOverlap, plan.Steps[2].ConnOverlap)
	fmt.Println("intersections:", ops[oig.OpIntersect], "count-only:", ops[oig.OpIntersectCount], "containment checks:", ops[oig.OpSubsetCheck])
	fmt.Println("verified:", oig.Verify(plan) == nil)
	// Output:
	// steps: 3
	// generation overlaps: [3] [5 3]
	// intersections: 1 count-only: 0 containment checks: 1
	// verified: true
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
