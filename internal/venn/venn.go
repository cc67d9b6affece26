// Package venn models subhypergraphs as Venn diagrams (Sec. 3 of the
// paper).
//
// Each vertex of a subhypergraph lies in exactly one Venn region — the set
// of hyperedges containing it, encoded as a bitmask ("profile"). Theorem 1
// states that two hyperedge sequences are subhypergraph-isomorphic exactly
// when corresponding region sizes agree; package sig computes those sizes
// through the inclusion–exclusion principle, while this package computes
// them directly from vertex profiles. Having both derivations lets the test
// suite use venn as the executable specification that validates the IEP
// shortcut the mining engine relies on.
package venn

import (
	"fmt"
	"math/bits"
	"strings"

	"ohminer/internal/sig"
)

// Region describes one Venn region of an m-edge subhypergraph.
type Region struct {
	Mask uint32 // hyperedges the region lies inside (≥1 bit)
	Size int    // number of vertices in the region
}

// Expr renders the defining set expression of a region, in the style of
// Figure 4(b): e.g. (A1 ∩ A2) \ A3 for mask 011 of a 3-edge pattern.
func (r Region) Expr(m int) string {
	var in, out []string
	for i := 0; i < m; i++ {
		name := fmt.Sprintf("A%d", i+1)
		if r.Mask&(1<<i) != 0 {
			in = append(in, name)
		} else {
			out = append(out, name)
		}
	}
	expr := strings.Join(in, " ∩ ")
	if len(in) > 1 && len(out) > 0 {
		expr = "(" + expr + ")"
	}
	for _, o := range out {
		expr += " \\ " + o
	}
	return expr
}

// VertexProfiles returns the profile mask of every vertex appearing in the
// hyperedge sequence: profile[v] has bit i set iff v ∈ edges[i]. This is the
// vertex-granularity view that HGMatch's validation hashes.
func VertexProfiles(edges [][]uint32) map[uint32]uint32 {
	profiles := map[uint32]uint32{}
	for i, e := range edges {
		for _, v := range e {
			profiles[v] |= 1 << uint(i)
		}
	}
	return profiles
}

// RegionsFromProfiles counts region sizes directly from vertex profiles —
// the definitional (non-IEP) derivation.
func RegionsFromProfiles(m int, profiles map[uint32]uint32) []Region {
	counts := make([]int, 1<<m)
	for _, p := range profiles {
		counts[p]++
	}
	regions := make([]Region, 0, 1<<m-1)
	for mask := 1; mask < 1<<m; mask++ {
		regions = append(regions, Region{Mask: uint32(mask), Size: counts[mask]})
	}
	return regions
}

// Regions returns the region sizes of the hyperedge sequence, derived via
// the IEP from its overlap signature, ordered by ascending mask.
func Regions(edges [][]uint32) ([]Region, error) {
	s, err := sig.Compute(edges)
	if err != nil {
		return nil, err
	}
	sizes := s.RegionSizes()
	regions := make([]Region, 0, len(sizes)-1)
	for mask := 1; mask < len(sizes); mask++ {
		regions = append(regions, Region{Mask: uint32(mask), Size: sizes[mask]})
	}
	return regions, nil
}

// Isomorphic reports whether the two hyperedge sequences are subhypergraph
// isomorphic under the given order (Theorem 1: region sizes — equivalently
// overlap signatures — must agree position-wise).
func Isomorphic(a, b [][]uint32) (bool, error) {
	if len(a) != len(b) {
		return false, nil
	}
	sa, err := sig.Compute(a)
	if err != nil {
		return false, err
	}
	sb, err := sig.Compute(b)
	if err != nil {
		return false, err
	}
	return sa.Equal(sb), nil
}

// CheckTheorem1 verifies on a concrete pair of hyperedge sequences that the
// IEP-derived region sizes equal the profile-derived region sizes, and
// returns the ordered-isomorphism verdict. Tests use it as the Theorem-1
// consistency probe.
func CheckTheorem1(a, b [][]uint32) (iso bool, err error) {
	for _, seq := range [][][]uint32{a, b} {
		regions, rerr := Regions(seq)
		if rerr != nil {
			return false, rerr
		}
		direct := RegionsFromProfiles(len(seq), VertexProfiles(seq))
		for i := range regions {
			if regions[i] != direct[i] {
				return false, fmt.Errorf("venn: IEP region %0*b=%d but profile count %d",
					len(seq), regions[i].Mask, regions[i].Size, direct[i].Size)
			}
		}
	}
	return Isomorphic(a, b)
}

// NumRegions returns the number of regions of an m-set Venn diagram
// (excluding the exterior): 2^m − 1.
func NumRegions(m int) int { return 1<<m - 1 }

// RegionOrder returns all masks ordered by (popcount, value) — the canonical
// region enumeration order used in figures.
func RegionOrder(m int) []uint32 {
	out := make([]uint32, 0, NumRegions(m))
	for pc := 1; pc <= m; pc++ {
		for mask := 1; mask < 1<<m; mask++ {
			if bits.OnesCount(uint(mask)) == pc {
				out = append(out, uint32(mask))
			}
		}
	}
	return out
}
