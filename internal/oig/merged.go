package oig

import (
	"math/bits"
	"slices"

	"ohminer/internal/intset"
)

// class groups the hyperedge subsets whose pattern overlap is one and the
// same vertex set X — the merge optimization of Sec. 4.3.1
// (MergeForUnique). Members are kept in readiness order; the minimal ones
// contain no other member, and the first minimal is the representative.
type class struct {
	members  []uint32
	minimals []uint32
	rep      uint32
	union    uint32 // OR of members
}

// compileMerged asks for the conditions of the merged plan. With T(M) =
// ∩_{i∈M} c_i, R a class's representative and w = |X| its size, each class
// gives (docs/COMPILER.md "Merged mode"):
//
//   - |T(R)| = w, with X's label histogram;
//   - |T(R ∪ {i})| = w, T(R) ⊆ c_i, for every other hyperedge i of a member;
//   - |T(S)| = w for every other minimal member S of three or more
//     hyperedges: with the containments, T(S) = T(R);
//
// and every minimal empty subset of three or more hyperedges gives = 0.
// Pairs, whose sizes generation guarantees, give nothing unless they carry a
// label histogram; every other subset is implied, at the step of its newest
// hyperedge already.
func (p *Plan) compileMerged(cs conds) {
	for _, c := range p.classes() {
		p.add(cs, c.rep, true)
		for rest := c.union &^ c.rep; rest != 0; rest &= rest - 1 {
			p.add(cs, c.rep|rest&-rest, false)
		}
		for _, mk := range c.minimals[1:] {
			if bits.OnesCount32(mk) >= 3 {
				p.add(cs, mk, false)
			}
		}
	}
	for mask := uint32(3); mask < 1<<p.Sig.M; mask++ {
		if p.Sig.Size(mask) == 0 && !p.impliedZero(mask) {
			p.add(cs, mask, false)
		}
	}
}

// classes groups the non-empty subsets by pattern overlap.
func (p *Plan) classes() []*class {
	sets := p.overlapSets()
	byKey := map[string]*class{}
	var out []*class
	for _, mask := range masksByStep(p.Sig.M) {
		if p.Sig.Size(mask) == 0 {
			continue
		}
		k := setKey(sets[mask])
		c, ok := byKey[k]
		if !ok {
			c = &class{}
			byKey[k] = c
			out = append(out, c)
		}
		c.members = append(c.members, mask)
		c.union |= mask
	}
	for _, c := range out {
		for _, mk := range c.members {
			if !slices.ContainsFunc(c.members, func(o uint32) bool { return o != mk && o&mk == o }) {
				c.minimals = append(c.minimals, mk)
			}
		}
		c.rep = c.minimals[0]
	}
	return out
}

// overlapSets returns the pattern's overlap set per non-empty hyperedge
// subset (nil for empty overlaps), derived incrementally.
func (p *Plan) overlapSets() [][]uint32 {
	m := p.Sig.M
	sets := make([][]uint32, 1<<m)
	for i := 0; i < m; i++ {
		sets[1<<i] = p.Pattern.Edge(i)
	}
	for mask := uint32(1); mask < 1<<m; mask++ {
		if bits.OnesCount32(mask) < 2 || p.Sig.Size(mask) == 0 {
			continue
		}
		low := mask & -mask
		sets[mask] = intset.Intersect(sets[mask&^low], sets[low], nil)
	}
	return sets
}
