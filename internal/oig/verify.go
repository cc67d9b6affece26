package oig

import (
	"fmt"
	"math/bits"
	"slices"
)

// Verify checks the structural invariants of a compiled plan and returns
// the first violation found. A valid plan guarantees the engine's
// interpreter cannot read unbound candidates or unwritten slots, and that
// the plan's checks collectively cover the pattern's overlap signature:
//
//  1. step metadata matches the reordered pattern (degree, conn/disc
//     partition of earlier positions according to the signature, every
//     connection's overlap size re-derived from it);
//  2. every operand references a position ≤ its step or a slot written by
//     an earlier operation;
//  3. every non-implied subset of hyperedges is accounted for: non-empty
//     subsets by an intersection/equality check or class membership, empty
//     pairs by generation-time disconnection, minimal empty subsets by an
//     emptiness check — and, in a merged plan, non-empty pairs by the
//     generation contract (Step.ConnOverlap) together with checks that both
//     hyperedges contain their class representative's overlap.
//
// cmd tools run Verify after compilation; the test suite runs it across
// randomized patterns for both modes.
func Verify(p *Plan) error {
	m := p.Pattern.NumEdges()
	if len(p.Steps) != m {
		return fmt.Errorf("oig: %d steps for %d hyperedges", len(p.Steps), m)
	}

	written := make([]bool, p.NumSlots)
	opByMask := map[uint32]bool{}
	// holds names the hyperedge subset whose overlap an operand stands for;
	// inside[S] collects the hyperedges the ops prove to contain S's overlap.
	slotMask := make([]uint32, p.NumSlots)
	holds := func(o Operand) uint32 {
		if o.Edge {
			return 1 << o.Pos
		}
		return slotMask[o.Pos]
	}
	inside := map[uint32]uint32{}
	resolvable := func(o Operand, step int) error {
		if o.Edge {
			if o.Pos < 0 || o.Pos > step {
				return fmt.Errorf("edge operand c%d at step %d", o.Pos, step)
			}
			return nil
		}
		if o.Pos < 0 || o.Pos >= p.NumSlots {
			return fmt.Errorf("slot operand s%d out of range %d", o.Pos, p.NumSlots)
		}
		if !written[o.Pos] {
			return fmt.Errorf("slot operand s%d read before write", o.Pos)
		}
		return nil
	}

	for t := 0; t < m; t++ {
		st := &p.Steps[t]
		if st.Degree != p.Pattern.Degree(t) {
			return fmt.Errorf("oig: step %d degree %d != pattern %d", t, st.Degree, p.Pattern.Degree(t))
		}
		seen := map[int]bool{}
		if len(st.ConnOverlap) != len(st.Conn) {
			return fmt.Errorf("oig: step %d has %d overlap sizes for %d connections", t, len(st.ConnOverlap), len(st.Conn))
		}
		for i, j := range st.Conn {
			if j < 0 || j >= t || seen[j] {
				return fmt.Errorf("oig: step %d conn %v", t, st.Conn)
			}
			seen[j] = true
			ov := p.Sig.Size(uint32(1<<j | 1<<t))
			if ov == 0 {
				return fmt.Errorf("oig: step %d lists %d as connected but pair overlap is empty", t, j)
			}
			if st.ConnOverlap[i] != ov {
				return fmt.Errorf("oig: step %d asks generation for %d shared vertices with position %d, the pattern's pair shares %d", t, st.ConnOverlap[i], j, ov)
			}
		}
		for _, j := range st.Disc {
			if j < 0 || j >= t || seen[j] {
				return fmt.Errorf("oig: step %d disc %v", t, st.Disc)
			}
			seen[j] = true
			if p.Sig.Size(uint32(1<<j|1<<t)) != 0 {
				return fmt.Errorf("oig: step %d lists %d as disconnected but pair overlap is non-empty", t, j)
			}
		}
		if len(seen) != t {
			return fmt.Errorf("oig: step %d covers %d of %d earlier positions", t, len(seen), t)
		}
		for i, op := range st.Ops {
			if err := resolvable(op.A, t); err != nil {
				return fmt.Errorf("oig: step %d op %d (%s): A: %v", t, i, op.Kind, err)
			}
			switch op.Kind {
			case OpIntersect, OpIntersectEq, OpEmptyCheck, OpSubsetCheck, OpIntersectCount:
				if err := resolvable(op.B, t); err != nil {
					return fmt.Errorf("oig: step %d op %d (%s): B: %v", t, i, op.Kind, err)
				}
			}
			switch op.Kind {
			case OpIntersectEq, OpEqCheck:
				if err := resolvable(op.Eq, t); err != nil {
					return fmt.Errorf("oig: step %d op %d (%s): Eq: %v", t, i, op.Kind, err)
				}
			}
			switch op.Kind {
			case OpIntersect, OpIntersectEq:
				if op.Out < 0 || op.Out >= p.NumSlots {
					return fmt.Errorf("oig: step %d op %d: out slot %d", t, i, op.Out)
				}
				written[op.Out] = true
				slotMask[op.Out] = op.Mask
			}
			switch op.Kind {
			case OpIntersectEq:
				inside[holds(op.Eq)] |= op.Mask
			case OpEqCheck:
				inside[holds(op.Eq)] |= holds(op.A)
			case OpSubsetCheck:
				inside[holds(op.A)] |= holds(op.B)
			}
			switch op.Kind {
			case OpIntersect, OpIntersectCount:
				if op.Want != p.Sig.Size(op.Mask) {
					return fmt.Errorf("oig: step %d op %d: want %d != sig %d for mask %b",
						t, i, op.Want, p.Sig.Size(op.Mask), op.Mask)
				}
			}
			if op.Kind == OpIntersectCount && op.Out != -1 {
				return fmt.Errorf("oig: step %d op %d: count-only op has out slot %d", t, i, op.Out)
			}
			opByMask[op.Mask] = true
		}
	}

	// Coverage: walk every subset and demand it is checked or implied.
	if err := p.verifyCoverage(opByMask); err != nil || p.Mode != ModeMerged {
		return err
	}
	// A merged plan leaves a pair's size to generation. That settles the
	// pair's overlap only if both hyperedges provably contain the overlap of
	// the pair's class representative — the first subset, in readiness order,
	// with the same pattern overlap: rep ⊆ c_j ∩ c_t and equal sizes give
	// equality.
	sets := p.overlapSets()
	order := masksByStep(m)
	for t := 1; t < m; t++ {
		for _, j := range p.Steps[t].Conn {
			pair := uint32(1<<j | 1<<t)
			for _, rep := range order {
				if !slices.Equal(sets[rep], sets[pair]) {
					continue
				}
				if miss := pair &^ (rep | inside[rep]); miss != 0 {
					return fmt.Errorf("oig: merged plan never checks that c%d contains the overlap of %b, the class representative of pair %b", maxBit(miss), rep, pair)
				}
				break
			}
		}
	}
	return nil
}

// verifyCoverage checks requirement 3: each subset's constraint is either
// directly checked, generation-implied, or class/zero-implied.
func (p *Plan) verifyCoverage(opByMask map[uint32]bool) error {
	m := p.Sig.M
	for mask := uint32(3); mask < 1<<m; mask++ {
		pc := bits.OnesCount32(mask)
		if pc < 2 {
			continue
		}
		if pc == 2 && (p.Mode == ModeMerged || p.Sig.Size(mask) == 0) {
			continue // generation: disconnection check, or the overlap-size contract
		}
		if p.Sig.Size(mask) == 0 {
			if p.impliedZero(mask) || opByMask[mask] {
				continue
			}
			return fmt.Errorf("oig: minimal empty subset %b has no emptiness check", mask)
		}
		if opByMask[mask] {
			continue
		}
		if p.Mode == ModeSimple {
			return fmt.Errorf("oig: simple plan misses non-empty subset %b", mask)
		}
		// Merged mode: the subset must be implied by its class — there must
		// exist a checked subset with the same pattern overlap size whose
		// union with mask stays inside the class (witnessed by a checked
		// subset of mask with equal overlap size). A subset S is implied iff
		// some checked (or single-edge, or generation-sized pair) S' ⊆ S has
		// sig[S'] == sig[S]: then ∩S = ∩S' once the class equalities hold.
		implied := false
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			if p.Sig.Size(sub) != p.Sig.Size(mask) {
				continue
			}
			if bits.OnesCount32(sub) <= 2 || opByMask[sub] {
				implied = true
				break
			}
		}
		if !implied {
			return fmt.Errorf("oig: merged plan misses subset %b without class witness", mask)
		}
	}
	return nil
}
