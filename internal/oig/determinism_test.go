package oig

import (
	"math/rand"
	"testing"

	"ohminer/internal/gen"
	"ohminer/internal/pattern"
)

// TestPlanDeterministic: compiling the same pattern twice yields
// structurally identical plans and fingerprints — required for reproducible
// experiment runs and for resuming one node's snapshot on another.
func TestPlanDeterministic(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "d", NumVertices: 120, NumEdges: 500,
		Communities: 6, MemberOverlap: 1.4, EdgeSizeMin: 3, EdgeSizeMax: 10, EdgeSizeMean: 6, Seed: 23})
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		p, err := pattern.Sample(h, 2+rng.Intn(5), 2, 45, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeSimple, ModeMerged} {
			a := MustCompile(p, mode)
			b := MustCompile(p, mode)
			if a.String() != b.String() {
				t.Fatalf("trial %d mode %s: non-deterministic plans\n--- a ---\n%s--- b ---\n%s",
					trial, mode, a, b)
			}
			if a.FP != b.FP || len(a.Order) != len(b.Order) {
				t.Fatalf("trial %d: fingerprint/order mismatch", trial)
			}
			for i := range a.Order {
				if a.Order[i] != b.Order[i] {
					t.Fatalf("trial %d: matching order differs", trial)
				}
			}
		}
	}
}

// TestModeStrings covers the enum renderings used in logs and tables.
func TestModeStrings(t *testing.T) {
	if ModeSimple.String() != "simple" || ModeMerged.String() != "merged" {
		t.Fatal("mode strings")
	}
}

// TestCondStepsMatchCompile: for every hyperedge order of sampled patterns
// (vertex-labelled ones included), condSteps.At names exactly the steps the
// merged plan compiled in that order puts conditions at — ChooseOrder prices
// conditions from it instead of compiling each order.
func TestCondStepsMatchCompile(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "c", NumVertices: 120, NumEdges: 500,
		Communities: 6, MemberOverlap: 1.4, EdgeSizeMin: 3, EdgeSizeMax: 10, EdgeSizeMean: 6, Seed: 31})
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		p, err := pattern.Sample(h, 2+rng.Intn(4), 2, 45, rng)
		if err != nil {
			t.Fatal(err)
		}
		if trial%4 == 3 {
			labels := make([]uint32, p.NumVertices())
			for v := range labels {
				labels[v] = uint32(rng.Intn(2))
			}
			if p, err = pattern.New(p.Edges(), labels); err != nil {
				t.Fatal(err)
			}
		}
		cs := newCondSteps(p)
		order := rng.Perm(p.NumEdges())
		for k := 0; k < 6; k++ {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			plan, err := CompileOrdered(p, ModeMerged, order)
			if err != nil {
				t.Fatal(err)
			}
			var want uint32
			for st, s := range plan.Steps {
				if len(s.Conds) > 0 {
					want |= 1 << st
				}
			}
			if got := cs.At(order); got != want {
				t.Fatalf("trial %d order %v: condSteps %b, plan has conditions at %b\n%s", trial, order, got, want, plan)
			}
		}
	}
}
