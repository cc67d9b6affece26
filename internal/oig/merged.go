package oig

import (
	"cmp"
	"math/bits"
	"slices"

	"ohminer/internal/pattern"
	"ohminer/internal/sig"
)

// class groups the hyperedge subsets whose pattern overlap is one and the
// same vertex set X — the merge optimization of Sec. 4.3.1
// (MergeForUnique). The minimal members contain no other member; the first of
// them in readiness order is the class's representative.
type class struct {
	minimals []uint32
	union    uint32 // OR of members
}

// mergedConds is the part of a merged plan's conditions that does not depend
// on the matching order, in the hyperedge indexing of the pattern it was
// derived from: the classes, and the minimal empty subsets. Only each class's
// representative depends on the order.
type mergedConds struct {
	classes []class
	empty   []uint32
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
	identity := make([]int, p.Sig.M)
	for i := range identity {
		identity[i] = i
	}
	newMergedConds(p.Sig).each(identity, func(mask uint32, label bool) {
		p.add(cs, mask, label)
	})
}

// each calls emit for every condition the merged plan asks for when
// hyperedge i is matched at position pos[i].
func (mc mergedConds) each(pos []int, emit func(mask uint32, label bool)) {
	for _, c := range mc.classes {
		rep := c.minimals[0]
		for _, mk := range c.minimals[1:] {
			if readyBefore(mk, rep, pos) {
				rep = mk
			}
		}
		emit(rep, true)
		for rest := c.union &^ rep; rest != 0; rest &= rest - 1 {
			emit(rep|rest&-rest, false)
		}
		for _, mk := range c.minimals {
			if mk != rep && bits.OnesCount32(mk) >= 3 {
				emit(mk, false)
			}
		}
	}
	for _, mask := range mc.empty {
		emit(mask, false)
	}
}

// readyBefore reports whether subset a comes before subset b in readiness
// order — masksByStep's — when hyperedge i is matched at position pos[i].
func readyBefore(a, b uint32, pos []int) bool {
	pa, pb := positions(a, pos), positions(b, pos)
	return cmp.Or(cmp.Compare(maxBit(pa), maxBit(pb)), compareMasks(pa, pb)) < 0
}

// positions maps a subset of hyperedges to the positions they are matched at,
// hyperedge i at pos[i].
func positions(mask uint32, pos []int) uint32 {
	var at uint32
	for m := mask; m != 0; m &= m - 1 {
		at |= 1 << pos[bits.TrailingZeros32(m)]
	}
	return at
}

// newMergedConds groups the non-empty subsets by pattern overlap and collects
// the minimal empty subsets of three or more hyperedges. Two subsets S and S'
// overlap in the same vertex set exactly when sig[S] = sig[S ∪ S'] = sig[S'],
// so the signature alone decides the classes.
func newMergedConds(s sig.Signature) mergedConds {
	var mc mergedConds
	var members [][]uint32
	for mask := uint32(1); mask < 1<<s.M; mask++ {
		w := s.Size(mask)
		if w == 0 {
			if bits.OnesCount32(mask) >= 3 && !impliedZero(s, mask) {
				mc.empty = append(mc.empty, mask)
			}
			continue
		}
		ci := slices.IndexFunc(members, func(ms []uint32) bool { return s.Size(ms[0]) == w && s.Size(ms[0]|mask) == w })
		if ci < 0 {
			ci = len(members)
			members = append(members, nil)
			mc.classes = append(mc.classes, class{})
		}
		members[ci] = append(members[ci], mask)
		mc.classes[ci].union |= mask
	}
	for ci, ms := range members {
		for _, mk := range ms {
			if !slices.ContainsFunc(ms, func(o uint32) bool { return o != mk && o&mk == o }) {
				mc.classes[ci].minimals = append(mc.classes[ci].minimals, mk)
			}
		}
	}
	return mc
}

// condSteps tells, for any matching order of one pattern, at which steps its
// merged plan carries conditions — without compiling a plan per order, so
// ChooseOrder can price them.
type condSteps struct {
	mc   mergedConds
	rule Plan // what Plan.add consults, for the pattern as written
}

// newCondSteps derives the order-free part of p's merged conditions.
func newCondSteps(p *pattern.Pattern) *condSteps {
	return &condSteps{
		mc:   newMergedConds(p.Signature()),
		rule: Plan{Mode: ModeMerged, Labeled: p.Labeled(), Sig: p.Signature()},
	}
}

// At returns, as a bit mask over steps, where the merged plan of the pattern
// compiled in order (order[t] = the hyperedge matched at step t) has
// conditions.
func (c *condSteps) At(order []int) uint32 {
	pos := make([]int, len(order))
	for t, i := range order {
		pos[i] = t
	}
	var steps uint32
	c.mc.each(pos, func(mask uint32, label bool) {
		if c.rule.asks(mask, label) {
			steps |= 1 << maxBit(positions(mask, pos))
		}
	})
	return steps
}
