package oig

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ohminer/internal/gen"
	"ohminer/internal/pattern"
	"ohminer/internal/sig"
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
	for trial := 0; trial < 80; trial++ {
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

// lastCond returns the last condition of the plan's last step.
func lastCond(pl *Plan) *Cond {
	st := &pl.Steps[len(pl.Steps)-1]
	return &st.Conds[len(st.Conds)-1]
}

// TestVerifyProgramRejectsInvalidPlans is the acceptance gate for the
// verifier: one corruption per rule — of the generation metadata, of a
// condition's shape, of what it wants, of the set of conditions, and of a
// counting-relevant field only the fingerprint covers — each rejected in both
// modes with its own diagnostic.
func TestVerifyProgramRejectsInvalidPlans(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(pl *Plan)
		want    string
	}{
		{"degree drifted", func(pl *Plan) { pl.Steps[1].Degree++ }, "degree"},
		{"connection dropped", func(pl *Plan) { pl.Steps[2].Conn = pl.Steps[2].Conn[:1] }, "overlap sizes for"},
		{"disconnection added", func(pl *Plan) { pl.Steps[2].Disc = append(pl.Steps[2].Disc, 0) }, "disc"},
		{"mask beyond the pattern", func(pl *Plan) { lastCond(pl).Mask |= 1 << 3 }, "is not two or more"},
		{"condition at an earlier step", func(pl *Plan) {
			pl.Steps[1].Conds = append(pl.Steps[1].Conds, *lastCond(pl))
		}, "newest hyperedge at step"},
		{"want beyond a degree", func(pl *Plan) { lastCond(pl).Want = 100 }, "more than c"},
		{"want drifted", func(pl *Plan) { lastCond(pl).Want-- }, "the pattern's has"},
		{"label on an unlabeled plan", func(pl *Plan) { lastCond(pl).Label = []sig.LabelCount{{Label: 0, Count: 3}} }, "label histogram"},
		{"last step's conditions dropped", func(pl *Plan) { pl.Steps[2].Conds = nil }, "is not implied"},
		{"fingerprint-uncovered field", func(pl *Plan) {
			// Order is counting-relevant (it maps plan counts back to the
			// original pattern) but structurally unconstrained — only the
			// fingerprint catches its mutation.
			pl.Order[0], pl.Order[1] = pl.Order[1], pl.Order[0]
		}, "fingerprint"},
	}
	for _, mode := range []Mode{ModeSimple, ModeMerged} {
		msgs := map[string]string{}
		for _, tc := range cases {
			pl := fig1Plan(t, mode)
			tc.corrupt(pl)
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
			if other, dup := msgs[err.Error()]; dup {
				t.Errorf("mode %s: %s and %s share the diagnostic %q", mode, tc.name, other, err)
			}
			msgs[err.Error()] = tc.name
		}
	}
}

// TestVerifyProgramGenerationContract: the verifier knows the contract the
// merged compiler relies on — pairwise overlap sizes belong to generation —
// rather than being relaxed for it. A drifted ConnOverlap and a missing
// "representative ⊆ c_x" are each refused, with the fingerprint re-stamped
// so that it is not what catches them; a simple plan, which does not lean on
// the contract, is refused without its pairwise conditions.
func TestVerifyProgramGenerationContract(t *testing.T) {
	parse := func(lit string, mode Mode) *Plan {
		p, err := pattern.Parse(lit)
		if err != nil {
			t.Fatal(err)
		}
		return MustCompile(p, mode)
	}
	// dropCond deletes the plan's k-th condition, counting step by step.
	dropCond := func(k int) func(pl *Plan) {
		return func(pl *Plan) {
			for s := range pl.Steps {
				if k < len(pl.Steps[s].Conds) {
					pl.Steps[s].Conds = slices.Delete(pl.Steps[s].Conds, k, k+1)
					return
				}
				k -= len(pl.Steps[s].Conds)
			}
			t.Fatalf("too few conditions in\n%s", pl)
		}
	}
	fig1 := "0 1 2 3 4 5; 3 4 5 6 7 8; 3 4 5 6 7 9 10 11"
	// e0∩e1 = e2∩e3 = {0,1}: two pairs in one class without a hyperedge in
	// common, so the second pair needs rep ⊆ c_x for both of its hyperedges.
	twoPairs := "0 1 2; 0 1 3; 0 1 4 5; 0 1 6 7"
	for _, tc := range []struct {
		name, pattern string
		mode          Mode
		corrupt       func(pl *Plan)
		want          string
	}{
		{"overlap size drifted", fig1, ModeMerged, func(pl *Plan) { pl.Steps[2].ConnOverlap[0]++ }, "asks generation for"},
		{"overlap sizes truncated", fig1, ModeMerged, func(pl *Plan) { pl.Steps[2].ConnOverlap = pl.Steps[2].ConnOverlap[:1] }, "overlap sizes for"},
		{"missing rep ⊆ c2 (fig. 1)", fig1, ModeMerged, dropCond(0), "overlap 111 (size 3) is not implied"},
		{"simple plan without a pair", fig1, ModeSimple, dropCond(0), "overlap 11 (size 3) is not implied"},
		{"missing one containment (two pairs)", twoPairs, ModeMerged, dropCond(0), "is not implied"},
		{"missing the other containment (two pairs)", twoPairs, ModeMerged, dropCond(1), "is not implied"},
	} {
		pl := parse(tc.pattern, tc.mode)
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
	// The two-pair plan settles the class with two containments and no
	// pairwise size condition.
	if pairs := parse(twoPairs, ModeMerged); totalConds(pairs) != 2 {
		t.Errorf("two-pair plan has %d conditions, want 2\n%s", totalConds(pairs), pairs)
	}
}

func TestVerifyProgramDiagnosticsDistinct(t *testing.T) {
	pl := fig1Plan(t, ModeMerged)
	msgs := map[string]bool{}
	for _, corrupt := range []func(*Plan){
		func(pl *Plan) { pl.Steps[1].Conds = append(pl.Steps[1].Conds, *lastCond(pl)) },
		func(pl *Plan) { pl.Steps[0].Conds = nil; pl.Steps[1].Conds = nil; pl.Steps[2].Conds = nil },
		func(pl *Plan) { pl.Order[0], pl.Order[1] = pl.Order[1], pl.Order[0] },
	} {
		c := *pl
		c.Steps = append([]Step(nil), pl.Steps...)
		for i := range c.Steps {
			c.Steps[i].Conds = slices.Clone(pl.Steps[i].Conds)
		}
		c.Order = slices.Clone(pl.Order)
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
		name   string
		mutate func(pl *Plan)
	}{
		{"mode", func(pl *Plan) { pl.Mode = ModeSimple }},
		{"order", func(pl *Plan) { pl.Order[0], pl.Order[1] = pl.Order[1], pl.Order[0] }},
		{"degree", func(pl *Plan) { pl.Steps[0].Degree++ }},
		{"conn", func(pl *Plan) { pl.Steps[1].Conn = append(pl.Steps[1].Conn, 0) }},
		{"conn overlap", func(pl *Plan) { pl.Steps[1].ConnOverlap[0]++ }},
		{"disc", func(pl *Plan) { pl.Steps[1].Disc = append(pl.Steps[1].Disc, 0) }},
		{"edgelabel", func(pl *Plan) { pl.Steps[0].EdgeLabel = 7 }},
		{"condition mask", func(pl *Plan) { lastCond(pl).Mask ^= 1 }},
		{"condition want", func(pl *Plan) { lastCond(pl).Want++ }},
		{"condition moved", func(pl *Plan) {
			pl.Steps[1].Conds, pl.Steps[2].Conds = pl.Steps[2].Conds, pl.Steps[1].Conds
		}},
	}
	for _, mu := range mutations {
		pl := fig1Plan(t, ModeMerged)
		mu.mutate(pl)
		if Fingerprint(pl) == orig {
			t.Errorf("%s: fingerprint unchanged after mutation", mu.name)
		}
	}

	// Labeled patterns: a condition's label histogram must be covered.
	labels := []uint32{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	lp := pattern.MustNew([][]uint32{
		{0, 1, 2, 3, 4, 5},
		{3, 4, 5, 6, 7, 8},
		{3, 4, 5, 6, 7, 9, 10, 11},
	}, labels)
	lplan := MustCompile(lp, ModeMerged)
	lorig := Fingerprint(lplan)
	c := slices.IndexFunc(lplan.Steps[1].Conds, func(c Cond) bool { return len(c.Label) > 0 })
	if c < 0 {
		t.Fatalf("labeled plan has no label histogram at step 1\n%s", lplan)
	}
	lplan.Steps[1].Conds[c].Label = slices.Clone(lplan.Steps[1].Conds[c].Label)
	lplan.Steps[1].Conds[c].Label[0].Count++
	if Fingerprint(lplan) == lorig {
		t.Error("label histogram mutation left fingerprint unchanged")
	}
}
