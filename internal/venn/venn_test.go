package venn

import (
	"math/rand"
	"testing"
)

func fig5Pattern() [][]uint32 {
	// The Figure 4/5 example pattern: region sizes {3,1,3,0,0,2,3}.
	return [][]uint32{
		{0, 1, 2, 9, 10, 11},
		{3, 7, 8, 9, 10, 11},
		{4, 5, 6, 7, 8, 9, 10, 11},
	}
}

// fig5Valid mirrors the valid embedding {e1,e2,e3} of Figure 5 (same region
// profile, different vertex IDs).
func fig5Valid() [][]uint32 {
	return [][]uint32{
		{20, 21, 22, 30, 31, 32},
		{23, 27, 28, 30, 31, 32},
		{24, 25, 26, 27, 28, 30, 31, 32},
	}
}

// fig5Invalid mirrors {e1,e2,e5}: sizes of R5 and R3 differ (1 and 2).
func fig5Invalid() [][]uint32 {
	return [][]uint32{
		{20, 21, 22, 30, 31, 32},
		{23, 27, 28, 30, 31, 32},
		{24, 25, 27, 28, 30, 31, 32, 21}, // drags an R1 vertex into A3
	}
}

func TestFig5Validation(t *testing.T) {
	sortAll := func(es [][]uint32) [][]uint32 {
		for _, e := range es {
			for i := 1; i < len(e); i++ {
				x := e[i]
				j := i - 1
				for j >= 0 && e[j] > x {
					e[j+1] = e[j]
					j--
				}
				e[j+1] = x
			}
		}
		return es
	}
	p := sortAll(fig5Pattern())
	good := sortAll(fig5Valid())
	bad := sortAll(fig5Invalid())

	if iso, err := Isomorphic(p, good); err != nil || !iso {
		t.Fatalf("valid embedding rejected: %v %v", iso, err)
	}
	if iso, err := Isomorphic(p, bad); err != nil || iso {
		t.Fatalf("invalid embedding accepted: %v %v", iso, err)
	}
}

func TestRegionsMatchProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		m := 1 + rng.Intn(5)
		edges := make([][]uint32, m)
		for i := range edges {
			seen := map[uint32]bool{}
			for j := 0; j < 1+rng.Intn(7); j++ {
				seen[uint32(rng.Intn(18))] = true
			}
			for v := range seen {
				edges[i] = append(edges[i], v)
			}
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
		if _, err := CheckTheorem1(edges, edges); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRegionExpr(t *testing.T) {
	r := Region{Mask: 0b011}
	got := r.Expr(3)
	if got != "(A1 ∩ A2) \\ A3" {
		t.Fatalf("Expr=%q", got)
	}
	full := Region{Mask: 0b111}
	if full.Expr(3) != "A1 ∩ A2 ∩ A3" {
		t.Fatalf("Expr=%q", full.Expr(3))
	}
	single := Region{Mask: 0b100}
	if single.Expr(3) != "A3 \\ A1 \\ A2" {
		t.Fatalf("Expr=%q", single.Expr(3))
	}
}

func TestRegionOrderAndCount(t *testing.T) {
	if NumRegions(3) != 7 {
		t.Fatalf("NumRegions(3)=%d", NumRegions(3))
	}
	order := RegionOrder(3)
	if len(order) != 7 {
		t.Fatalf("len=%d", len(order))
	}
	// Popcount must be non-decreasing.
	pc := func(x uint32) int {
		n := 0
		for ; x != 0; x &= x - 1 {
			n++
		}
		return n
	}
	for i := 1; i < len(order); i++ {
		if pc(order[i]) < pc(order[i-1]) {
			t.Fatalf("order not by popcount: %v", order)
		}
	}
}

func TestVertexProfiles(t *testing.T) {
	edges := [][]uint32{{0, 1}, {1, 2}}
	p := VertexProfiles(edges)
	if p[0] != 0b01 || p[1] != 0b11 || p[2] != 0b10 {
		t.Fatalf("profiles: %v", p)
	}
}
