package engine

// Tests for the symmetry-breaking compiler pass end-to-end: restricted and
// unrestricted plans must agree with each other and with the brute-force
// oracle on every shape, truncated restricted runs must report exact Unique
// counts, and the checkpoint layer must refuse to mix the two counting
// spaces.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"ohminer/internal/baseline"
	"ohminer/internal/bruteforce"
	"ohminer/internal/checkpoint"
	"ohminer/internal/dal"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// TestSymmetryDifferentialShapes sweeps every 2- and 3-hyperedge shape,
// mining each realization with restrictions on and off — on this engine and,
// over the same plan, on internal/baseline's first-level driver with all
// three kernel families: Ordered and Unique must match the brute-force
// oracle (and each other) everywhere. This is the
// differential proof that enforcing the stabilizer-chain restrictions
// changes the work, never the answer.
func TestSymmetryDifferentialShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	h := randHypergraph(rng, false)
	store := dal.Build(h)
	for _, k := range []int{2, 3} {
		shapes, err := pattern.EnumerateShapes(k, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range shapes {
			p, err := s.Pattern()
			if err != nil {
				t.Fatal(err)
			}
			want := bruteforce.Count(h, p)
			aut := uint64(p.Automorphisms())
			for _, norestrict := range []bool{false, true} {
				plan, err := oig.CompileWith(p, oig.ModeMerged, oig.CompileOptions{NoRestrictions: norestrict})
				if err != nil {
					t.Fatalf("shape %s: %v", s.Key(), err)
				}
				wantRestricted := !norestrict && aut > 1
				if plan.Restricted != wantRestricted {
					t.Fatalf("shape %s: Restricted=%v with NoRestrictions=%v (aut=%d)",
						s.Key(), plan.Restricted, norestrict, aut)
				}
				res, err := MineWithPlanContext(context.Background(), store, plan, Options{Workers: 2})
				if err != nil {
					t.Fatalf("shape %s norestrict=%v: %v", s.Key(), norestrict, err)
				}
				if res.Ordered != want || res.Unique != want/aut || res.UniqueRemainder != 0 {
					t.Fatalf("shape %s norestrict=%v: Ordered=%d Unique=%d rem=%d, want %d/%d/0\npattern %s",
						s.Key(), norestrict, res.Ordered, res.Unique, res.UniqueRemainder, want, want/aut, p)
				}
				if res.Restricted != wantRestricted {
					t.Fatalf("shape %s: result Restricted=%v under NoRestrictions=%v", s.Key(), res.Restricted, norestrict)
				}
				for _, kernel := range baseline.Kernels() {
					ref, err := baseline.MineWithPlan(context.Background(), store, plan, baseline.Options{Workers: 2, Kernel: kernel})
					if err != nil || ref.Ordered != want || ref.Unique != want/aut || ref.Restricted != wantRestricted {
						t.Fatalf("shape %s norestrict=%v baseline kernel=%s: Ordered=%d Unique=%d Restricted=%v err=%v, want %d/%d/%v",
							s.Key(), norestrict, kernel.Name, ref.Ordered, ref.Unique, ref.Restricted, err, want, want/aut, wantRestricted)
					}
				}
			}
		}
	}
}

// TestTruncatedUniqueCounts is the regression test for the truncated-run
// Unique bug: a limit landing mid-orbit on a symmetric pattern. The
// restricted run counts orbits directly, so Unique is exact at any cut; the
// legacy unrestricted run cannot split an orbit silently — the remainder
// must surface in UniqueRemainder instead of being floored away.
func TestTruncatedUniqueCounts(t *testing.T) {
	store, p, want := slowWorkload(t) // star data, chain2 pattern, |Aut| = 2
	if aut := p.Automorphisms(); aut != 2 {
		t.Fatalf("workload pattern has %d automorphisms, want 2", aut)
	}
	const limit = 7 // odd: guaranteed mid-orbit in ordered space

	// Restricted: 7 enumerated canonical tuples = 7 exact unique embeddings.
	res, err := Mine(store, p, Options{Workers: 1, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Restricted || !res.Truncated {
		t.Fatalf("restricted=%v truncated=%v, want true/true", res.Restricted, res.Truncated)
	}
	if res.Unique != limit || res.Ordered != limit*2 || res.UniqueRemainder != 0 {
		t.Errorf("restricted: Unique=%d Ordered=%d rem=%d, want %d/%d/0",
			res.Unique, res.Ordered, res.UniqueRemainder, limit, limit*2)
	}

	// Legacy: 7 enumerated ordered tuples floor to 3 unique with the odd
	// tuple flagged, and the identity Unique*aut+rem == Ordered holds.
	res, err = Mine(store, p, Options{Workers: 1, Limit: limit, NoSymmetryBreak: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restricted || !res.Truncated {
		t.Fatalf("legacy: restricted=%v truncated=%v, want false/true", res.Restricted, res.Truncated)
	}
	if res.Ordered != limit {
		t.Fatalf("legacy: Ordered=%d, want exactly %d (single worker)", res.Ordered, limit)
	}
	if res.Unique != limit/2 || res.UniqueRemainder != 1 {
		t.Errorf("legacy: Unique=%d rem=%d, want %d/1", res.Unique, res.UniqueRemainder, limit/2)
	}
	if res.Unique*2+res.UniqueRemainder != res.Ordered {
		t.Errorf("legacy: Unique*aut+rem = %d, want Ordered=%d", res.Unique*2+res.UniqueRemainder, res.Ordered)
	}

	// Complete runs agree across both modes and match the oracle.
	for _, nsb := range []bool{false, true} {
		res, err := Mine(store, p, Options{Workers: 2, NoSymmetryBreak: nsb})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ordered != want || res.Unique != want/2 || res.UniqueRemainder != 0 {
			t.Errorf("complete nsb=%v: Ordered=%d Unique=%d rem=%d, want %d/%d/0",
				nsb, res.Ordered, res.Unique, res.UniqueRemainder, want, want/2)
		}
	}
}

// TestSnapshotRejectsCountingSpaceMismatch: a snapshot fingerprinted by an
// unrestricted plan must not resume onto a restricted one (and vice versa) —
// the two count in different spaces — and a restricted plan must refuse a
// snapshot whose ordered total is not a whole number of orbits.
func TestSnapshotRejectsCountingSpaceMismatch(t *testing.T) {
	store, p, _ := slowWorkload(t)
	restricted, err := oig.Compile(p, oig.ModeMerged)
	if err != nil {
		t.Fatal(err)
	}
	if !restricted.Restricted {
		t.Fatal("default compile of a symmetric pattern is not restricted")
	}
	legacy, err := oig.CompileWith(p, oig.ModeMerged, oig.CompileOptions{NoRestrictions: true})
	if err != nil {
		t.Fatal(err)
	}
	if oig.Fingerprint(restricted) == oig.Fingerprint(legacy) {
		t.Fatal("restricted and unrestricted plans share a fingerprint")
	}

	mkSnap := func(plan *oig.Plan, ordered uint64) *checkpoint.Snapshot {
		return &checkpoint.Snapshot{
			Seq:     1,
			PlanFP:  PlanFingerprint(plan),
			GraphFP: store.Hypergraph().Fingerprint(),
			Ordered: ordered,
			Frontier: []checkpoint.Task{
				{Depth: 0, Cands: []uint32{0, 1, 2}},
			},
		}
	}

	// Cross-space resume attempts: both directions must fail validation.
	if err := ValidateSnapshot(store, restricted, mkSnap(legacy, 10)); err == nil {
		t.Error("restriction-less snapshot accepted by a restricted plan")
	}
	if err := ValidateSnapshot(store, legacy, mkSnap(restricted, 10)); err == nil {
		t.Error("restricted snapshot accepted by an unrestricted plan")
	}

	// Matching fingerprints still reject a non-orbit-multiple counter.
	if err := ValidateSnapshot(store, restricted, mkSnap(restricted, 11)); err == nil {
		t.Error("restricted plan accepted Ordered=11 with |Aut|=2")
	}
	if err := ValidateSnapshot(store, restricted, mkSnap(restricted, 10)); err != nil {
		t.Errorf("valid restricted snapshot rejected: %v", err)
	}
}

// TestMulAddBoundary: ordered totals at the uint64 boundary are exact or
// refused with ErrCountOverflow, never wrapped.
func TestMulAddBoundary(t *testing.T) {
	const maxU = math.MaxUint64
	const fact14 = 87178291200 // |Aut| of a 14-petal sunflower
	for _, tc := range []struct {
		sum, a, b, want uint64
		overflow        bool
	}{
		{0, maxU, 1, maxU, false},
		{0, 1, maxU, maxU, false},
		{maxU - 6, 2, 3, maxU, false},
		{maxU - 5, 2, 3, 0, true},
		{0, 1 << 32, 1 << 32, 0, true},
		{0, 1<<32 - 1, 1<<32 + 1, maxU, false},
		{0, maxU / fact14, fact14, maxU / fact14 * fact14, false},
		{0, maxU/fact14 + 1, fact14, 0, true},
		{1, 0, maxU, 1, false},
	} {
		got, err := MulAdd(tc.sum, tc.a, tc.b)
		if tc.overflow != (err != nil) || !tc.overflow && got != tc.want {
			t.Errorf("MulAdd(%d, %d, %d) = %d, %v; want %d, overflow %v", tc.sum, tc.a, tc.b, got, err, tc.want, tc.overflow)
		}
		if err != nil && !errors.Is(err, ErrCountOverflow) {
			t.Errorf("MulAdd(%d, %d, %d): error %v is not ErrCountOverflow", tc.sum, tc.a, tc.b, err)
		}
	}
}
