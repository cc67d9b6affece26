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
	// Matching order puts pe3 (most connected + largest) first. Generation
	// guarantees every pairwise overlap size, so what is left of Table 1 is
	// the merged class: its representative {c0,c1} is materialised once
	// (size known), and the other minimal pair {c1,c2} — Table 1's
	// "c5 == c4" — becomes "representative ⊆ c2" (c1 is in the
	// representative). The {c0,c2} overlap feeds nothing and is dropped.
	ops := plan.NumOps()
	if ops[OpIntersect] != 1 || ops[OpSubsetCheck] != 1 || len(ops) != 2 {
		t.Fatalf("ops=%v want one intersect and one subset check\n%s", ops, plan)
	}
	if got := plan.Steps[2].Ops[0]; got.Kind != OpSubsetCheck || got.A != (Operand{Pos: plan.Steps[1].Ops[0].Out}) || got.B != (Operand{Edge: true, Pos: 2}) {
		t.Fatalf("step 2 op: %+v\n%s", got, plan)
	}
	if !slices.Equal(plan.Steps[1].ConnOverlap, []int{3}) || !slices.Equal(plan.Steps[2].ConnOverlap, []int{5, 3}) {
		t.Fatalf("generation overlaps %v %v want [3] [5 3]\n%s", plan.Steps[1].ConnOverlap, plan.Steps[2].ConnOverlap, plan)
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
	// All four ≥2-subsets are non-empty → 4 intersections, no eq/subset ops.
	// The triple overlap and one pair feed no later op, so two of the four
	// are count-only after the dead-slot pass.
	ops := plan.NumOps()
	if ops[OpIntersect]+ops[OpIntersectCount] != 4 || ops[OpIntersectEq] != 0 || ops[OpSubsetCheck] != 0 {
		t.Fatalf("ops=%v\n%s", ops, plan)
	}
	if ops[OpIntersectCount] == 0 {
		t.Fatalf("dead-slot pass demoted nothing: ops=%v\n%s", ops, plan)
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
	// The empty triple {0,1,2} is implied by the empty pair — no
	// OpEmptyCheck.
	if n := plan.NumOps()[OpEmptyCheck]; n != 0 {
		t.Fatalf("empty checks=%d want 0", n)
	}
}

func TestCompileMinimalEmptyTriple(t *testing.T) {
	// Three pairwise-overlapping edges with an empty triple overlap: the
	// triangle. The triple must get an explicit OpEmptyCheck.
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {0, 2}}, nil)
	plan := MustCompile(p, ModeMerged)
	if n := plan.NumOps()[OpEmptyCheck]; n != 1 {
		t.Fatalf("empty checks=%d want 1\n%s", n, plan)
	}
	simple := MustCompile(p, ModeSimple)
	if n := simple.NumOps()[OpEmptyCheck]; n != 1 {
		t.Fatalf("simple empty checks=%d want 1\n%s", n, simple)
	}
}

func TestCompileNestedEdgeSubset(t *testing.T) {
	// pe1 ⊆ pe0: the pair {0,1} overlap equals pe1 itself, so the merged
	// plan replaces the pair's intersection with a subset check.
	p := pattern.MustNew([][]uint32{{0, 1, 2, 3}, {1, 2}}, nil)
	plan := MustCompile(p, ModeMerged)
	ops := plan.NumOps()
	if ops[OpSubsetCheck] != 1 || ops[OpIntersect] != 0 {
		t.Fatalf("ops=%v\n%s", ops, plan)
	}
}

// TestPlanOperandsResolvable validates structural invariants on random
// patterns: op operands must reference bound positions or already-written
// slots, and ops of step t must only touch positions ≤ t.
func TestPlanOperandsResolvable(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 150, NumEdges: 500,
		Communities: 8, MemberOverlap: 1.2, EdgeSizeMin: 3, EdgeSizeMax: 10, EdgeSizeMean: 6, Seed: 41})
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(4)
		p, err := pattern.Sample(h, m, 3, 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeSimple, ModeMerged} {
			plan := MustCompile(p, mode)
			checkPlanInvariants(t, plan)
		}
	}
}

func checkPlanInvariants(t *testing.T, plan *Plan) {
	t.Helper()
	written := make([]bool, plan.NumSlots)
	resolvable := func(o Operand, step int) bool {
		if o.Edge {
			return o.Pos >= 0 && o.Pos <= step
		}
		return o.Pos >= 0 && o.Pos < plan.NumSlots && written[o.Pos]
	}
	for step, st := range plan.Steps {
		if st.Degree != plan.Pattern.Degree(step) {
			t.Fatalf("step %d degree mismatch", step)
		}
		for _, j := range append(append([]int{}, st.Conn...), st.Disc...) {
			if j < 0 || j >= step {
				t.Fatalf("step %d references position %d", step, j)
			}
		}
		for _, op := range st.Ops {
			if !resolvable(op.A, step) {
				t.Fatalf("step %d op %v: operand A unresolvable\n%s", step, op, plan)
			}
			switch op.Kind {
			case OpIntersect, OpIntersectEq, OpEmptyCheck, OpIntersectCount:
				if !resolvable(op.B, step) {
					t.Fatalf("step %d op %v: operand B unresolvable\n%s", step, op, plan)
				}
			}
			switch op.Kind {
			case OpIntersectEq, OpEqCheck:
				if !resolvable(op.Eq, step) {
					t.Fatalf("step %d op %v: operand Eq unresolvable\n%s", step, op, plan)
				}
			case OpSubsetCheck:
				if !op.B.Edge || op.B.Pos > step {
					t.Fatalf("step %d subset op B=%v", step, op.B)
				}
			}
			if op.Out >= 0 {
				if op.Out >= plan.NumSlots {
					t.Fatalf("slot %d out of range %d", op.Out, plan.NumSlots)
				}
				written[op.Out] = true
			}
			if (op.Kind == OpIntersect || op.Kind == OpIntersectCount) && op.Want <= 0 {
				t.Fatalf("%v with Want=%d", op.Kind, op.Want)
			}
			if op.Mask == 0 || maxBit(op.Mask) > step && op.Kind != OpSubsetCheck {
				t.Fatalf("step %d op mask %b", step, op.Mask)
			}
		}
	}
}

// TestMergedNeverChecksMore verifies the merge optimization only removes
// work: merged plans never emit more intersections than simple plans.
func TestMergedNeverChecksMore(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 100, NumEdges: 400,
		Communities: 5, MemberOverlap: 1.5, EdgeSizeMin: 3, EdgeSizeMax: 12, EdgeSizeMean: 7, Seed: 42})
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 40; trial++ {
		p, err := pattern.Sample(h, 2+rng.Intn(4), 3, 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		simple := MustCompile(p, ModeSimple).NumOps()
		merged := MustCompile(p, ModeMerged).NumOps()
		sTotal := simple[OpIntersect] + simple[OpIntersectCount] + simple[OpIntersectEq]
		mTotal := merged[OpIntersect] + merged[OpIntersectCount] + merged[OpIntersectEq]
		if mTotal > sTotal {
			t.Fatalf("merged emits %d intersections vs simple %d for %s", mTotal, sTotal, p)
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
	if len(plan.Steps) != 1 || len(plan.Steps[0].Ops) != 0 {
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
	var found bool
	for _, st := range plan.Steps {
		for _, op := range st.Ops {
			if op.Kind == OpIntersect && op.LabelWant != nil {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no labeled intersect targets\n%s", plan)
	}
}
