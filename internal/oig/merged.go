package oig

import (
	"cmp"
	"math/bits"
	"slices"

	"ohminer/internal/intset"
)

// class groups the hyperedge subsets whose pattern overlap is one and the
// same vertex set — the merge optimization of Sec. 4.3.1 (MergeForUnique).
// Only the ⊆-minimal members need settling: the first one (the
// representative) with a size check, later ones by equality with the
// representative — an op of their own, or for a pair its generation-guaranteed
// size plus containment — because for any other member S the embedding
// overlap ∩c_S provably equals the representative buffer once the minimal
// members agree and the completion bits are subset-checked.
type class struct {
	members  []uint32
	minimals []uint32
	rep      uint32
	repOp    Operand
	repReady bool
	union    uint32 // OR of members
	covered  uint32 // OR of the minimals whose ops prove containment
}

// compileMerged emits the merged execution plan:
//
//   - class representative subsets → OpIntersect with size (+label) check;
//   - other ⊆-minimal members of three or more hyperedges → OpIntersectEq
//     against the representative (a pattern hyperedge equal to an overlap
//     degenerates to OpEqCheck);
//   - other ⊆-minimal pairs {j,t} → nothing of their own: generation
//     guarantees |c_j ∩ c_t| (Step.ConnOverlap), which equals the
//     representative's size, so rep ⊆ c_j and rep ⊆ c_t — rep ⊆ c_j ∩ c_t —
//     already give equality; j and t are left to the completion checks;
//   - bits of a class's member union covered neither by the representative
//     nor by an OpIntersectEq/OpEqCheck member → OpSubsetCheck (the
//     representative set must lie inside that candidate hyperedge), once per
//     (class, hyperedge);
//   - minimal empty subsets of ≥3 hyperedges → OpEmptyCheck (pairs are
//     generation-time disconnection checks);
//   - every other subset is implied and skipped.
func (p *Plan) compileMerged() error {
	m := p.Sig.M

	sets := p.overlapSets()

	// Class discovery over non-empty subsets, in readiness order so that
	// members[0]-style invariants hold deterministically.
	classes := map[string]*class{}
	classOf := map[uint32]*class{}
	for _, mask := range masksByStep(m) {
		if p.Sig.Size(mask) == 0 {
			continue
		}
		k := setKey(sets[mask])
		c, ok := classes[k]
		if !ok {
			c = &class{}
			classes[k] = c
		}
		c.members = append(c.members, mask)
		c.union |= mask
		classOf[mask] = c
	}
	for _, c := range classes {
		for _, mk := range c.members {
			minimal := true
			for _, other := range c.members {
				if other != mk && other&mk == other {
					minimal = false
					break
				}
			}
			if minimal {
				c.minimals = append(c.minimals, mk)
			}
		}
		// Members are in readiness order, so the first minimal is the
		// representative (smallest (maxBit, popcount, value) key). It and
		// the minimals that get an equality op of their own cover their
		// hyperedges; a minimal pair does not.
		c.rep = c.minimals[0]
		c.covered = c.rep
		for _, mk := range c.minimals[1:] {
			if bits.OnesCount32(mk) != 2 {
				c.covered |= mk
			}
		}
		if bits.OnesCount32(c.rep) == 1 {
			c.repOp = Operand{Edge: true, Pos: maxBit(c.rep)}
			c.repReady = true
		}
	}

	scratch := -1
	scratchSlot := func() int {
		if scratch < 0 {
			scratch = p.NumSlots
			p.NumSlots++
		}
		return scratch
	}
	bufOf := func(mask uint32) (Operand, bool) {
		if bits.OnesCount32(mask) == 1 {
			return Operand{Edge: true, Pos: maxBit(mask)}, true
		}
		c := classOf[mask]
		if c == nil || !c.repReady {
			return Operand{}, false
		}
		return c.repOp, true
	}
	mustBuf := func(mask uint32) Operand {
		op, ok := bufOf(mask)
		if !ok {
			// Unreachable by construction: the representative of any
			// already-ready subset has an earlier readiness key.
			panic("oig: operand not ready")
		}
		return op
	}

	for _, mask := range masksByStep(m) {
		pc := bits.OnesCount32(mask)
		t := maxBit(mask)
		if pc == 1 {
			// A hyperedge whose vertex set equals an earlier overlap: the
			// class representative is that overlap; demand equality.
			if c := classOf[mask]; c.rep != mask {
				at := t
				if rb := maxBit(c.rep); rb > at {
					at = rb
				}
				p.Steps[at].Ops = append(p.Steps[at].Ops, Op{
					Kind: OpEqCheck, A: Operand{Edge: true, Pos: t}, Eq: c.repOp, Out: -1, Mask: mask,
				})
			}
			continue
		}
		rest := mask &^ (1 << t)
		if p.Sig.Size(mask) == 0 {
			if pc == 2 || p.impliedZero(mask) {
				continue
			}
			p.Steps[t].Ops = append(p.Steps[t].Ops, Op{
				Kind: OpEmptyCheck, A: mustBuf(rest), B: Operand{Edge: true, Pos: t}, Out: -1, Mask: mask,
			})
			continue
		}
		c := classOf[mask]
		switch {
		case c.rep == mask:
			out := p.NumSlots
			p.NumSlots++
			c.repOp = Operand{Pos: out}
			c.repReady = true
			p.Steps[t].Ops = append(p.Steps[t].Ops, Op{
				Kind: OpIntersect, A: mustBuf(rest), B: p.chooseB(mask, t, bufOf),
				Out: out, Want: p.Sig.Size(mask), Mask: mask, LabelWant: p.labelWant(mask),
			})
		case pc > 2 && isMinimal(c, mask):
			p.Steps[t].Ops = append(p.Steps[t].Ops, Op{
				Kind: OpIntersectEq, A: mustBuf(rest), B: p.chooseB(mask, t, bufOf),
				Eq: c.repOp, Out: scratchSlot(), Mask: mask,
			})
		default:
			// Implied by the class machinery, or a minimal pair left to
			// generation and the completion checks; skip.
		}
	}

	// Class-union completion: hyperedges appearing in some member but in no
	// minimal member must contain the representative set. Classes are
	// visited in representative order for deterministic plans.
	ordered := make([]*class, 0, len(classes))
	for _, c := range classes {
		ordered = append(ordered, c)
	}
	slices.SortFunc(ordered, func(a, b *class) int {
		return cmp.Or(cmp.Compare(maxBit(a.rep), maxBit(b.rep)), compareMasks(a.rep, b.rep))
	})
	for _, c := range ordered {
		extra := c.union &^ c.covered
		for extra != 0 {
			bit := extra & -extra
			extra &^= bit
			i := maxBit(bit)
			at := i
			if rb := maxBit(c.rep); rb > at {
				at = rb
			}
			p.Steps[at].Ops = append(p.Steps[at].Ops, Op{
				Kind: OpSubsetCheck, A: c.repOp, B: Operand{Edge: true, Pos: i},
				Out: -1, Mask: c.union,
			})
		}
	}
	return nil
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

func isMinimal(c *class, mask uint32) bool { return slices.Contains(c.minimals, mask) }
