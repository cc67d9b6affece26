package oig

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"ohminer/internal/gen"
	"ohminer/internal/pattern"
)

// fig1Pattern is the running example (Figure 1(a)/Figure 8): pe1 and pe2
// have 6 vertices, pe3 has 8, with pe1∩pe2 == pe1∩pe3 (3 shared vertices)
// and |pe2∩pe3| = 5, |pe1∩pe2∩pe3| = 3.
func fig1Pattern(t *testing.T) *pattern.Pattern {
	t.Helper()
	return pattern.MustNew([][]uint32{
		{0, 1, 2, 3, 4, 5},
		{3, 4, 5, 6, 7, 8},
		{3, 4, 5, 6, 7, 9, 10, 11},
	}, nil)
}

func TestBuildGraphFig8(t *testing.T) {
	p := fig1Pattern(t)
	g := BuildGraph(p.Edges())
	if g.NumLevels() != 2 {
		// Level 1: three hyperedges. Level 2: o45 = pe1∩pe2 = pe1∩pe3
		// (merged) and o6 = pe2∩pe3. Level 3 of Figure 8 (o7 = o45 ∩ o6)
		// collapses here because o45 ⊆ o6 makes the derived mask a
		// subsumption, which Algorithm 1's merge removes; the plan still
		// validates the triple overlap through the class machinery.
		t.Logf("graph:\n%s", g)
	}
	if len(g.Levels[0]) != 3 {
		t.Fatalf("level 1 has %d nodes", len(g.Levels[0]))
	}
	if len(g.Levels) < 2 || len(g.Levels[1]) != 2 {
		t.Fatalf("level 2 wrong:\n%s", g)
	}
	// The merged node must carry two masks ({pe1,pe2} and {pe1,pe3}).
	var mergedFound bool
	for _, id := range g.Levels[1] {
		n := g.Nodes[id]
		if len(n.Set) == 3 {
			if len(n.Masks) != 2 {
				t.Fatalf("merged node has masks %v", n.Masks)
			}
			mergedFound = true
		}
	}
	if !mergedFound {
		t.Fatalf("no merged 3-vertex overlap node:\n%s", g)
	}
}

func TestOverlapOrderTopological(t *testing.T) {
	p := fig1Pattern(t)
	g := BuildGraph(p.Edges())
	order := g.OverlapOrder()
	pos := make(map[int]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	// Every node must come after both predecessors of each derivation.
	for _, n := range g.Nodes {
		for _, pr := range n.Preds {
			if pos[n.ID] < pos[pr[0]] || pos[n.ID] < pos[pr[1]] {
				t.Fatalf("node %d before its predecessors %v", n.ID, pr)
			}
		}
	}
}

func TestGroups(t *testing.T) {
	// The Figure 9 shape: 5 hyperedges where {0,1} and {2,3} form two
	// cliques joined through edge 4.
	p := pattern.MustNew([][]uint32{
		{0, 1, 2},
		{1, 2, 3},
		{6, 7, 8},
		{7, 8, 9},
		{2, 3, 6, 7, 10},
	}, nil)
	g := BuildGraph(p.Edges())
	s := p.Signature()
	pairConn := func(i, j int) bool { return s.Size(uint32(1<<i|1<<j)) > 0 }
	groups := g.Groups(2, pairConn)
	if len(groups) < 2 {
		t.Fatalf("expected ≥2 groups at level 2, got %v\n%s", groups, g)
	}
}

func TestCompileFig1MergedPlan(t *testing.T) {
	p := fig1Pattern(t)
	plan := MustCompile(p, ModeMerged)
	if plan.Pattern.NumEdges() != 3 || len(plan.Steps) != 3 {
		t.Fatalf("steps: %d", len(plan.Steps))
	}
	// The order chosen without a store is pe1, pe3, pe2. Generation
	// guarantees every pairwise overlap size, so what is left of Table 1 is
	// the merged class {c0,c1} ~ {c0,c2} — Table 1's "c5 == c4": its
	// representative pair needs nothing, and the other pair's c2 must contain
	// the representative's overlap, |c0 ∩ c1 ∩ c2| = 3.
	if got := plan.NumOps(); !slices.Equal(got, []int{0, 0, 1}) || plan.Steps[2].Conds[0].Mask != 0b111 || plan.Steps[2].Conds[0].Want != 3 {
		t.Fatalf("conditions per step %v, want one |c0 ∩ c1 ∩ c2| = 3 at step 2\n%s", got, plan)
	}
	if !slices.Equal(plan.Steps[1].ConnOverlap, []int{3}) || !slices.Equal(plan.Steps[2].ConnOverlap, []int{3, 5}) {
		t.Fatalf("generation overlaps %v %v want [3] [3 5]\n%s", plan.Steps[1].ConnOverlap, plan.Steps[2].ConnOverlap, plan)
	}
	// Generation: step 0 unconstrained, steps 1,2 connected to all previous
	// (the pattern is a triangle of overlaps).
	for tt := 1; tt < 3; tt++ {
		if len(plan.Steps[tt].Conn) != tt || len(plan.Steps[tt].Disc) != 0 {
			t.Fatalf("step %d gen: conn=%v disc=%v", tt, plan.Steps[tt].Conn, plan.Steps[tt].Disc)
		}
	}
	if plan.CompileTime <= 0 {
		t.Fatal("CompileTime not recorded")
	}
	if plan.String() == "" {
		t.Fatal("empty plan rendering")
	}
}

func TestCompileSimpleChecksEverySubset(t *testing.T) {
	p := fig1Pattern(t)
	plan := MustCompile(p, ModeSimple)
	// All four ≥2-subsets are non-empty → one size condition each.
	if got := plan.NumOps(); !slices.Equal(got, []int{0, 1, 3}) {
		t.Fatalf("conditions per step %v, want [0 1 3]\n%s", got, plan)
	}
}

func TestCompileDisconnectedPairs(t *testing.T) {
	// A path: e0-e1-e2 where e0 and e2 do not overlap.
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil)
	plan := MustCompile(p, ModeMerged)
	discTotal := 0
	for _, st := range plan.Steps {
		discTotal += len(st.Disc)
	}
	if discTotal != 1 {
		t.Fatalf("disc checks=%d want 1\n%s", discTotal, plan)
	}
	// The empty triple {0,1,2} is implied by the empty pair — no condition.
	if n := totalConds(plan); n != 0 {
		t.Fatalf("%d conditions, want 0\n%s", n, plan)
	}
}

func TestCompileMinimalEmptyTriple(t *testing.T) {
	// Three pairwise-overlapping edges with an empty triple overlap: the
	// triangle. The triple must get an explicit = 0 condition; the simple
	// plan checks the three pairs' sizes as well.
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {0, 2}}, nil)
	for mode, want := range map[Mode][]int{ModeMerged: {0, 0, 1}, ModeSimple: {0, 1, 3}} {
		plan := MustCompile(p, mode)
		if got := plan.NumOps(); !slices.Equal(got, want) || plan.Steps[2].Conds[want[2]-1].Mask != 0b111 || plan.Steps[2].Conds[want[2]-1].Want != 0 {
			t.Fatalf("%s: conditions per step %v, want %v ending in |c0 ∩ c1 ∩ c2| = 0\n%s", mode, got, want, plan)
		}
	}
}

func TestCompileNestedEdgeSubset(t *testing.T) {
	// pe1 ⊆ pe0: the pair's overlap is pe1 itself, which generation already
	// guarantees (ConnOverlap = the smaller Degree), so the merged plan checks
	// nothing.
	p := pattern.MustNew([][]uint32{{0, 1, 2, 3}, {1, 2}}, nil)
	plan := MustCompile(p, ModeMerged)
	if n := totalConds(plan); n != 0 || plan.Steps[1].ConnOverlap[0] != min(plan.Steps[0].Degree, plan.Steps[1].Degree) {
		t.Fatalf("%d conditions, want 0\n%s", n, plan)
	}
}

// TestCompletionAtItsOwnStep: in the class of {0}, R = {c0, c1} is the
// representative and {c2, c3, c4} a 3-way minimal member. Its equality with
// T(R) is settled only once c4 binds, but the member {c0, c1, c2} needs
// T(R) ⊆ c2 at step 2 already: c2 gets its own completion there, not one
// implied by the later member, so every prefix of the plan stays exact.
func TestCompletionAtItsOwnStep(t *testing.T) {
	p := pattern.MustNew([][]uint32{{0, 1}, {0, 2}, {0, 3, 4}, {0, 3, 5}, {0, 4, 5}}, nil)
	plan, err := CompileOrdered(p, ModeMerged, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(plan.Steps[2].Conds, func(c Cond) bool { return c.Mask == 0b111 && c.Want == 1 }) {
		t.Fatalf("step 2 has no |c0 ∩ c1 ∩ c2| = 1\n%s", plan)
	}
}

func totalConds(plan *Plan) (n int) {
	for _, c := range plan.NumOps() {
		n += c
	}
	return n
}

// TestMergedNeverChecksMore verifies the merge optimization only removes
// work: merged plans never emit more conditions than simple plans.
func TestMergedNeverChecksMore(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 100, NumEdges: 400,
		Communities: 5, MemberOverlap: 1.5, EdgeSizeMin: 3, EdgeSizeMax: 12, EdgeSizeMean: 7, Seed: 42})
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 40; trial++ {
		p, err := pattern.Sample(h, 2+rng.Intn(4), 3, 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		simple, merged := totalConds(MustCompile(p, ModeSimple)), totalConds(MustCompile(p, ModeMerged))
		if merged > simple {
			t.Fatalf("merged emits %d conditions vs simple %d for %s", merged, simple, p)
		}
	}
}

func TestMasksByStepOrder(t *testing.T) {
	ms := masksByStep(3)
	if len(ms) != 7 {
		t.Fatalf("len=%d", len(ms))
	}
	// maxBit must be non-decreasing; within a step popcount non-decreasing.
	for i := 1; i < len(ms); i++ {
		ta, tb := maxBit(ms[i-1]), maxBit(ms[i])
		if tb < ta {
			t.Fatalf("order: %v", ms)
		}
		if tb == ta && bits.OnesCount32(ms[i]) < bits.OnesCount32(ms[i-1]) {
			t.Fatalf("popcount order: %v", ms)
		}
	}
}

func TestCompileSingleEdgePattern(t *testing.T) {
	p := pattern.MustNew([][]uint32{{0, 1, 2}}, nil)
	plan := MustCompile(p, ModeMerged)
	if len(plan.Steps) != 1 || len(plan.Steps[0].Conds) != 0 {
		t.Fatalf("single-edge plan: %s", plan)
	}
	if plan.Steps[0].Degree != 3 {
		t.Fatalf("degree=%d", plan.Steps[0].Degree)
	}
}

func TestCompileLabeled(t *testing.T) {
	p := pattern.MustNew([][]uint32{{0, 1, 2}, {1, 2, 3}}, []uint32{0, 1, 0, 1})
	plan := MustCompile(p, ModeMerged)
	if !plan.Labeled {
		t.Fatal("labeled flag lost")
	}
	if plan.Steps[0].EdgeLabels == nil || plan.Steps[1].EdgeLabels == nil {
		t.Fatal("EdgeLabels missing")
	}
	// The pair's size is generation's, its label histogram is not.
	if c := plan.Steps[1].Conds; len(c) != 1 || c[0].Mask != 0b11 || c[0].Label == nil {
		t.Fatalf("want one labelled |c0 ∩ c1| condition\n%s", plan)
	}
}
