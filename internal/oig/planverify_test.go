package oig

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"ohminer/internal/gen"
	"ohminer/internal/pattern"
)

func fig1Plan(t *testing.T, mode Mode) *Plan {
	t.Helper()
	p, err := pattern.Parse("0 1 2 3 4 5; 3 4 5 6 7 8; 3 4 5 6 7 9 10 11")
	if err != nil {
		t.Fatal(err)
	}
	return MustCompile(p, mode)
}

func TestVerifyProgramAcceptsCompiledPlans(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 150, NumEdges: 600,
		Communities: 8, MemberOverlap: 1.3, EdgeSizeMin: 3, EdgeSizeMax: 10, EdgeSizeMean: 6, Seed: 52})
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(5)
		p, err := pattern.Sample(h, m, 2, 50, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeSimple, ModeMerged} {
			plan := MustCompile(p, mode)
			if err := VerifyProgram(plan); err != nil {
				t.Fatalf("trial %d mode %s: %v\npattern %s\n%s", trial, mode, err, p, plan)
			}
			if plan.FP == 0 {
				t.Fatalf("trial %d mode %s: compiled plan is unstamped", trial, mode)
			}
		}
	}
}

// TestVerifyProgramRejectsInvalidPlans is the acceptance gate for the IR
// verifier: three hand-crafted invalid plans — a use-before-def slot read, a
// read of a demoted/compacted slot, and a mutation of a counting-relevant
// field the structural checks do not inspect — each rejected with a distinct
// diagnostic.
func TestVerifyProgramRejectsInvalidPlans(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, pl *Plan)
		want    string
	}{
		{
			name: "use-before-def slot read",
			corrupt: func(t *testing.T, pl *Plan) {
				for s := range pl.Steps {
					for i := range pl.Steps[s].Ops {
						op := &pl.Steps[s].Ops[i]
						if op.Kind == OpIntersect || op.Kind == OpIntersectEq {
							// Read the op's own output: the slot is not
							// written until the op completes.
							op.A = Operand{Edge: false, Pos: op.Out}
							return
						}
					}
				}
				t.Fatal("no slot-writing op in plan")
			},
			want: "read before write",
		},
		{
			name: "demoted slot read",
			corrupt: func(t *testing.T, pl *Plan) {
				for s := range pl.Steps {
					for i := range pl.Steps[s].Ops {
						op := &pl.Steps[s].Ops[i]
						switch op.Kind {
						case OpIntersect, OpIntersectEq, OpEmptyCheck, OpSubsetCheck, OpIntersectCount:
							// Reference a slot index beyond the compacted
							// slot space, as a stale pre-demotion plan would.
							op.B = Operand{Edge: false, Pos: pl.NumSlots}
							return
						}
					}
				}
				t.Fatal("no B-reading op in plan")
			},
			want: "beyond the plan's",
		},
		{
			name: "fingerprint-uncovered field",
			corrupt: func(t *testing.T, pl *Plan) {
				// Order is counting-relevant (it maps plan counts back to the
				// original pattern) but structurally unconstrained — only the
				// fingerprint catches its mutation.
				if len(pl.Order) < 2 {
					t.Fatal("plan order too short")
				}
				pl.Order[0], pl.Order[1] = pl.Order[1], pl.Order[0]
			},
			want: "fingerprint",
		},
		{
			name: "phantom slot",
			corrupt: func(t *testing.T, pl *Plan) {
				pl.NumSlots++
			},
			want: "never written",
		},
	}
	for _, mode := range []Mode{ModeSimple, ModeMerged} {
		for _, tc := range cases {
			pl := fig1Plan(t, mode)
			tc.corrupt(t, pl)
			err := VerifyProgram(pl)
			if err == nil {
				t.Errorf("mode %s: %s: invalid plan passed verification", mode, tc.name)
				continue
			}
			if !errors.Is(err, ErrInvalidPlan) {
				t.Errorf("mode %s: %s: error does not wrap ErrInvalidPlan: %v", mode, tc.name, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("mode %s: %s: diagnostic %q does not mention %q", mode, tc.name, err, tc.want)
			}
		}
	}
}

// TestVerifyProgramGenerationContract: the verifier knows the contract the
// merged compiler relies on — pairwise overlap sizes belong to generation —
// rather than being relaxed for it. A drifted ConnOverlap, a pairwise size op
// the compiler should have dropped, and a missing "representative ⊆ c_x" are
// each refused by their own rule, with the fingerprint re-stamped so that it
// is not what catches them.
func TestVerifyProgramGenerationContract(t *testing.T) {
	parse := func(lit string) *Plan {
		p, err := pattern.Parse(lit)
		if err != nil {
			t.Fatal(err)
		}
		return MustCompile(p, ModeMerged)
	}
	dropSubsetCheck := func(x int) func(pl *Plan) {
		return func(pl *Plan) {
			for s := range pl.Steps {
				for i, op := range pl.Steps[s].Ops {
					if op.Kind == OpSubsetCheck && op.B == (Operand{Edge: true, Pos: x}) {
						pl.Steps[s].Ops = append(pl.Steps[s].Ops[:i:i], pl.Steps[s].Ops[i+1:]...)
						return
					}
				}
			}
			t.Fatalf("no containment check on c%d in\n%s", x, pl)
		}
	}
	fig1 := "0 1 2 3 4 5; 3 4 5 6 7 8; 3 4 5 6 7 9 10 11"
	// e0∩e1 = e2∩e3 = {0,1}: two pairs in one class without a hyperedge in
	// common, so the second pair needs rep ⊆ c_2 and rep ⊆ c_3.
	twoPairs := "0 1 2; 0 1 3; 0 1 4 5; 0 1 6 7"
	for _, tc := range []struct {
		name, pattern string
		corrupt       func(pl *Plan)
		want          string
	}{
		{"overlap size drifted", fig1, func(pl *Plan) { pl.Steps[2].ConnOverlap[0]++ }, "asks generation for"},
		{"overlap sizes truncated", fig1, func(pl *Plan) { pl.Steps[2].ConnOverlap = pl.Steps[2].ConnOverlap[:1] }, "overlap sizes for"},
		{"leftover pairwise count op", fig1, func(pl *Plan) {
			pl.Steps[2].Ops = append(pl.Steps[2].Ops, Op{Kind: OpIntersectCount, A: Operand{Edge: true, Pos: 0},
				B: Operand{Edge: true, Pos: 2}, Out: -1, Want: 5, Mask: 0b101})
		}, "should have been dropped"},
		{"missing rep ⊆ c2 (fig. 1)", fig1, dropSubsetCheck(2), "never checks that c2 contains"},
		{"missing rep ⊆ c2 (two pairs)", twoPairs, dropSubsetCheck(2), "never checks that c2 contains"},
		{"missing rep ⊆ c3 (two pairs)", twoPairs, dropSubsetCheck(3), "never checks that c3 contains"},
	} {
		pl := parse(tc.pattern)
		if err := VerifyProgram(pl); err != nil {
			t.Fatalf("%s: compiled plan refused: %v", tc.name, err)
		}
		tc.corrupt(pl)
		pl.FP = Fingerprint(pl)
		err := VerifyProgram(pl)
		if !errors.Is(err, ErrInvalidPlan) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an invalid-plan error mentioning %q\n%s", tc.name, err, tc.want, pl)
		}
	}
	// The two-pair plan materialises the class once and probes both
	// hyperedges of the second pair; no pairwise size op is left.
	ops := parse(twoPairs).NumOps()
	if ops[OpIntersect] != 1 || ops[OpSubsetCheck] != 2 || ops[OpIntersectCount]+ops[OpIntersectEq] != 0 {
		t.Errorf("two-pair plan ops=%v\n%s", ops, parse(twoPairs))
	}
}

func TestVerifyProgramDiagnosticsDistinct(t *testing.T) {
	pl := fig1Plan(t, ModeMerged)
	msgs := map[string]bool{}
	for _, corrupt := range []func(*Plan){
		func(pl *Plan) {
			for s := range pl.Steps {
				for i := range pl.Steps[s].Ops {
					op := &pl.Steps[s].Ops[i]
					if op.Kind == OpIntersect || op.Kind == OpIntersectEq {
						op.A = Operand{Edge: false, Pos: op.Out}
						return
					}
				}
			}
		},
		func(pl *Plan) { pl.Steps[0].Ops = nil; pl.Steps[1].Ops = nil; pl.Steps[2].Ops = nil },
		func(pl *Plan) { pl.Order[0], pl.Order[1] = pl.Order[1], pl.Order[0] },
	} {
		c := *pl
		c.Steps = append([]Step(nil), pl.Steps...)
		for i := range c.Steps {
			c.Steps[i].Ops = append([]Op(nil), pl.Steps[i].Ops...)
		}
		c.Order = append([]int(nil), pl.Order...)
		corrupt(&c)
		err := VerifyProgram(&c)
		if err == nil {
			t.Fatal("corrupted plan passed verification")
		}
		if msgs[err.Error()] {
			t.Errorf("duplicate diagnostic %q", err)
		}
		msgs[err.Error()] = true
	}
}

// TestFingerprintCoverage mutates one representative of each
// counting-relevant field class and asserts the fingerprint moves.
func TestFingerprintCoverage(t *testing.T) {
	base := fig1Plan(t, ModeMerged)
	orig := Fingerprint(base)
	if orig != base.FP {
		t.Fatalf("recomputed fingerprint %#x != stamped %#x", orig, base.FP)
	}

	mutations := []struct {
		name    string
		mutate  func(pl *Plan)
		applies func(pl *Plan) bool
	}{
		{"mode", func(pl *Plan) { pl.Mode = ModeSimple }, nil},
		{"numslots", func(pl *Plan) { pl.NumSlots++ }, nil},
		{"order", func(pl *Plan) { pl.Order[0], pl.Order[1] = pl.Order[1], pl.Order[0] }, nil},
		{"degree", func(pl *Plan) { pl.Steps[0].Degree++ }, nil},
		{"conn", func(pl *Plan) { pl.Steps[1].Conn = append(pl.Steps[1].Conn, 0) }, nil},
		{"conn overlap", func(pl *Plan) { pl.Steps[1].ConnOverlap[0]++ }, nil},
		{"disc", func(pl *Plan) { pl.Steps[1].Disc = append(pl.Steps[1].Disc, 0) }, nil},
		{"edgelabel", func(pl *Plan) { pl.Steps[0].EdgeLabel = 7 }, nil},
		{"op kind", func(pl *Plan) { firstOp(pl).Kind = OpEqCheck }, hasOps},
		{"op A", func(pl *Plan) { firstOp(pl).A.Pos++ }, hasOps},
		{"op out", func(pl *Plan) { firstOp(pl).Out++ }, hasOps},
		{"op want", func(pl *Plan) { firstOp(pl).Want++ }, hasOps},
		{"op mask", func(pl *Plan) { firstOp(pl).Mask ^= 1 }, hasOps},
	}
	for _, mu := range mutations {
		pl := fig1Plan(t, ModeMerged)
		if mu.applies != nil && !mu.applies(pl) {
			t.Fatalf("%s: mutation not applicable to test plan", mu.name)
		}
		mu.mutate(pl)
		if Fingerprint(pl) == orig {
			t.Errorf("%s: fingerprint unchanged after mutation", mu.name)
		}
	}

	// Labeled patterns: vertex labels and label histograms must be covered.
	labels := []uint32{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	lp := pattern.MustNew([][]uint32{
		{0, 1, 2, 3, 4, 5},
		{3, 4, 5, 6, 7, 8},
		{3, 4, 5, 6, 7, 9, 10, 11},
	}, labels)
	lplan := MustCompile(lp, ModeMerged)
	lorig := Fingerprint(lplan)
	lmut := MustCompile(lp, ModeMerged)
	found := false
	for s := range lmut.Steps {
		for i := range lmut.Steps[s].Ops {
			if lw := lmut.Steps[s].Ops[i].LabelWant; len(lw) > 0 {
				lw[0].Count++
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		for s := range lmut.Steps {
			if len(lmut.Steps[s].EdgeLabels) > 0 {
				lmut.Steps[s].EdgeLabels[0].Count++
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("labeled plan has no label histograms to mutate")
	}
	if Fingerprint(lmut) == lorig {
		t.Error("label histogram mutation left fingerprint unchanged")
	}
}

func hasOps(pl *Plan) bool { return firstOp(pl) != nil }

func firstOp(pl *Plan) *Op {
	for s := range pl.Steps {
		if len(pl.Steps[s].Ops) > 0 {
			return &pl.Steps[s].Ops[0]
		}
	}
	return nil
}
