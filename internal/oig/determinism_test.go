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
