package sig

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// fig4Pattern is the example pattern of Figure 4: three hyperedges with
// region sizes {R1..R7} = {3,1,3,0,0,2,3}.
//
// Regions (mask over {A1,A2,A3}): R1=A1 only(3), R2=A2 only(1), R3=A3
// only(3), R4=A1∩A2 only(0), R5=A1∩A3 only(0), R6=A2∩A3 only(2),
// R7=A1∩A2∩A3(3).
func fig4Pattern() [][]uint32 {
	// Build vertex sets realizing those region sizes.
	// R1: 0,1,2  R2: 3  R3: 4,5,6  R6: 7,8  R7: 9,10,11
	a1 := []uint32{0, 1, 2, 9, 10, 11}
	a2 := []uint32{3, 7, 8, 9, 10, 11}
	a3 := []uint32{4, 5, 6, 7, 8, 9, 10, 11}
	return [][]uint32{a1, a2, a3}
}

func TestComputeFig4(t *testing.T) {
	s := MustCompute(fig4Pattern())
	if s.Size(0b001) != 6 || s.Size(0b010) != 6 || s.Size(0b100) != 8 {
		t.Fatalf("degrees wrong: %v", s.Sizes)
	}
	if s.Size(0b011) != 3 { // A1∩A2 = R4+R7 = 0+3
		t.Fatalf("|A1∩A2|=%d", s.Size(0b011))
	}
	if s.Size(0b101) != 3 || s.Size(0b110) != 5 || s.Size(0b111) != 3 {
		t.Fatalf("sizes: %v", s.Sizes)
	}
	regions := s.RegionSizes()
	want := map[uint32]int{
		0b001: 3, 0b010: 1, 0b100: 3,
		0b011: 0, 0b101: 0, 0b110: 2,
		0b111: 3,
	}
	for mask, w := range want {
		if regions[mask] != w {
			t.Errorf("region[%03b]=%d want %d", mask, regions[mask], w)
		}
	}
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute(nil); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, err := Compute([][]uint32{{2, 1}}); err == nil {
		t.Error("unsorted edge accepted")
	}
	big := make([][]uint32, MaxEdges+1)
	for i := range big {
		big[i] = []uint32{0}
	}
	if _, err := Compute(big); err == nil {
		t.Error("oversized pattern accepted")
	}
}

// refSig computes the signature by direct per-mask set intersection over
// maps — the oracle.
func refSig(edges [][]uint32) []int {
	m := len(edges)
	out := make([]int, 1<<m)
	for mask := 1; mask < 1<<m; mask++ {
		counts := map[uint32]int{}
		n := bits.OnesCount(uint(mask))
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				for _, v := range edges[i] {
					counts[v]++
				}
			}
		}
		for _, c := range counts {
			if c == n {
				out[mask]++
			}
		}
	}
	return out
}

func randEdges(rng *rand.Rand, m, space int) [][]uint32 {
	edges := make([][]uint32, m)
	for i := range edges {
		seen := map[uint32]bool{}
		sz := 1 + rng.Intn(8)
		for j := 0; j < sz; j++ {
			seen[uint32(rng.Intn(space))] = true
		}
		for v := range seen {
			edges[i] = append(edges[i], v)
		}
		// insertion sort
		e := edges[i]
		for a := 1; a < len(e); a++ {
			x := e[a]
			b := a - 1
			for b >= 0 && e[b] > x {
				e[b+1] = e[b]
				b--
			}
			e[b+1] = x
		}
	}
	return edges
}

func TestComputeAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		m := 1 + rng.Intn(5)
		edges := randEdges(rng, m, 4+rng.Intn(20))
		s := MustCompute(edges)
		want := refSig(edges)
		for mask := 1; mask < 1<<m; mask++ {
			if s.Sizes[mask] != want[mask] {
				t.Fatalf("trial %d mask %b: %d want %d", trial, mask, s.Sizes[mask], want[mask])
			}
		}
	}
}

// TestRegionRoundtrip: summing regions over supersets must reproduce the
// signature (sig[S] = Σ_{T⊇S} region[T]).
func TestRegionRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(5)
		edges := randEdges(rng, m, 15)
		s := MustCompute(edges)
		regions := s.RegionSizes()
		for mask := 1; mask < 1<<m; mask++ {
			sum := 0
			for sup := mask; sup < 1<<m; sup++ {
				if sup&mask == mask {
					sum += regions[sup]
				}
			}
			if sum != s.Sizes[mask] {
				return false
			}
			if regions[mask] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEqual(t *testing.T) {
	a := MustCompute(fig4Pattern())
	b := MustCompute(fig4Pattern())
	if !a.Equal(b) {
		t.Fatal("identical signatures unequal")
	}
	c := MustCompute([][]uint32{{0, 1}, {1, 2}, {2, 3}})
	if a.Equal(c) {
		t.Fatal("different signatures equal")
	}
	if a.Equal(MustCompute([][]uint32{{0}})) {
		t.Fatal("different M equal")
	}
}

func TestComputeLabeled(t *testing.T) {
	edges := [][]uint32{{0, 1, 2}, {1, 2, 3}}
	labels := []uint32{0, 1, 1, 0}
	ls, err := ComputeLabeled(edges, func(v uint32) uint32 { return labels[v] })
	if err != nil {
		t.Fatal(err)
	}
	// Overlap {1,2} has labels {1,1}.
	got := ls.Counts[0b11]
	if len(got) != 1 || got[0].Label != 1 || got[0].Count != 2 {
		t.Fatalf("overlap histogram: %v", got)
	}
	// Edge 0 has labels {0:1, 1:2}.
	e0 := ls.Counts[0b01]
	if len(e0) != 2 || e0[0] != (LabelCount{0, 1}) || e0[1] != (LabelCount{1, 2}) {
		t.Fatalf("edge histogram: %v", e0)
	}
}

func TestLabeledPropagatedEmpty(t *testing.T) {
	edges := [][]uint32{{0}, {1}, {0, 1}}
	ls, err := ComputeLabeled(edges, func(v uint32) uint32 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if ls.Counts[0b011] != nil || ls.Counts[0b111] != nil {
		t.Fatal("empty overlaps should have nil histograms")
	}
}
