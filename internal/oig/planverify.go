package oig

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/bits"

	"ohminer/internal/sig"
)

// ErrInvalidPlan tags every program-verification failure reported by
// VerifyProgram so callers can distinguish a malformed plan from an I/O
// error with errors.Is.
var ErrInvalidPlan = errors.New("oig: invalid plan")

// Fingerprint hashes every plan field that affects the match count: the
// reordered pattern (edges, vertex labels, hyperedge labels), the matching
// order, the compile mode, the slot count, and each step's generation
// constraints, symmetry-breaking restrictions, and validation operations. Derived fields that are recomputed
// from these (Sig, LabelSig, Graph), pure diagnostics
// (CompileTime), and the per-op container hints (Op.Hint — performance
// advice the engine derives from DAL density statistics; every hint value
// computes the same result, and hashing it would make snapshots and cluster
// leases unresumable between builds with different hint policies or store
// densities) are excluded. Two plans with equal fingerprints direct the
// engine to the same computation; a snapshot or lease carrying a stale
// fingerprint is rejected before any candidate is counted.
func Fingerprint(p *Plan) uint64 {
	h := fnv.New64a()
	w := func(v uint64) {
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	wi := func(v int) { w(uint64(int64(v))) }
	operand := func(o Operand) {
		if o.Edge {
			w(1)
		} else {
			w(0)
		}
		wi(o.Pos)
	}
	labels := func(lc []sig.LabelCount) {
		wi(len(lc))
		for _, c := range lc {
			w(uint64(c.Label))
			wi(c.Count)
		}
	}

	io.WriteString(h, p.Pattern.String())
	w(uint64(p.Mode))
	wi(p.NumSlots)
	if p.Labeled {
		w(1)
		for v := uint32(0); v < uint32(p.Pattern.NumVertices()); v++ {
			w(uint64(p.Pattern.Label(v)))
		}
	} else {
		w(0)
	}
	wi(len(p.Order))
	for _, o := range p.Order {
		wi(o)
	}
	wi(len(p.Steps))
	for _, st := range p.Steps {
		wi(st.Degree)
		wi(len(st.Conn))
		for _, j := range st.Conn {
			wi(j)
		}
		wi(len(st.ConnOverlap))
		for _, ov := range st.ConnOverlap {
			wi(ov)
		}
		wi(len(st.Disc))
		for _, j := range st.Disc {
			wi(j)
		}
		// Symmetry-breaking restrictions change what one counted tuple means
		// (an orbit instead of an ordered embedding), so they are hashed by
		// content: a snapshot written by a restriction-less plan can never
		// resume onto a restricted one or vice versa, while asymmetric
		// patterns — whose restriction lists are empty either way — stay
		// interchangeable.
		wi(len(st.Restrict))
		for _, j := range st.Restrict {
			wi(j)
		}
		w(uint64(int64(st.EdgeLabel)))
		labels(st.EdgeLabels)
		wi(len(st.Ops))
		for _, op := range st.Ops {
			w(uint64(op.Kind))
			operand(op.A)
			operand(op.B)
			operand(op.Eq)
			wi(op.Out)
			wi(op.Want)
			w(uint64(op.Mask))
			labels(op.LabelWant)
		}
	}
	return h.Sum64()
}

// VerifyProgram validates a compiled plan as a program, layering semantic
// checks on top of the structural Verify pass:
//
//   - slot space: every operand slot index is inside [0, NumSlots) — a read
//     at or beyond NumSlots means the op still references a slot the
//     count-only pass demoted and compacted away;
//   - slot discipline: every slot is written, and first writes appear in
//     ascending slot order (the compaction invariant the engine's buffer
//     allocator relies on);
//   - liveness: every surviving OpIntersect without a label check has its
//     output read by a later operation — a dead materialization should have
//     been demoted to OpIntersectCount, or, when pairwise in a merged plan,
//     dropped, as should any pairwise OpIntersectCount there: generation
//     guarantees those sizes;
//   - mask/step discipline: each op runs at the step its subset becomes
//     computable (intersections exactly at maxBit(Mask); equality checks no
//     earlier than it; class-union subset checks may look ahead);
//   - fingerprint coverage: if the plan carries a compile-time fingerprint,
//     recomputing it over the current fields must match — any drift means a
//     field that affects counting was modified after compilation.
//
// Every failure wraps ErrInvalidPlan. The compiler runs this as a debug
// assertion, `ohmplan -verify` exposes it on the command line, and the
// checkpoint/lease load path runs it before resuming a snapshot.
func VerifyProgram(p *Plan) error {
	// Demoted/compacted slot reads first, with a dedicated diagnostic:
	// structural Verify would report them as generic range errors.
	for t := range p.Steps {
		for i, op := range p.Steps[t].Ops {
			for _, ref := range opSlotReads(op) {
				if ref.o.Pos >= p.NumSlots {
					return fmt.Errorf("%w: step %d op %d (%s): %s reads slot s%d beyond the plan's %d compacted slots (demoted or compacted output)",
						ErrInvalidPlan, t, i, op.Kind, ref.role, ref.o.Pos, p.NumSlots)
				}
			}
		}
	}

	if err := Verify(p); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidPlan, err)
	}

	// Slot discipline and liveness over the whole program.
	const never = int(^uint(0) >> 1)
	firstWrite := make([]int, p.NumSlots)
	lastRead := make([]int, p.NumSlots)
	readers := make([]int, p.NumSlots)
	for s := range firstWrite {
		firstWrite[s] = never
		lastRead[s] = -1
	}
	seq := 0
	type deadCand struct {
		step, op, out int
	}
	var dead []deadCand
	for t := range p.Steps {
		for i, op := range p.Steps[t].Ops {
			for _, ref := range opSlotReads(op) {
				lastRead[ref.o.Pos] = seq
				readers[ref.o.Pos]++
			}
			if op.Kind == OpIntersect || op.Kind == OpIntersectEq {
				if firstWrite[op.Out] == never {
					firstWrite[op.Out] = seq
				}
				if op.Kind == OpIntersect && op.LabelWant == nil {
					dead = append(dead, deadCand{t, i, op.Out})
				}
			}
			seq++
		}
	}
	prev := -1
	for s := 0; s < p.NumSlots; s++ {
		if firstWrite[s] == never {
			return fmt.Errorf("%w: slot s%d is never written (NumSlots %d overcounts the compacted slots)",
				ErrInvalidPlan, s, p.NumSlots)
		}
		if firstWrite[s] < prev {
			return fmt.Errorf("%w: slot s%d is first written before slot s%d (slots not numbered in first-write order)",
				ErrInvalidPlan, s, s-1)
		}
		prev = firstWrite[s]
	}
	for _, d := range dead {
		if readers[d.out] == 0 {
			return fmt.Errorf("%w: step %d op %d: intersection materializes slot s%d that no operation reads (should be demoted to intersect-count, or dropped if pairwise in a merged plan)",
				ErrInvalidPlan, d.step, d.op, d.out)
		}
	}

	// Mask/step discipline. Intersections and emptiness probes run exactly at
	// the step their newest hyperedge binds. Equality checks may be deferred
	// (merged mode replays a class check once its representative exists);
	// class-union subset checks carry a union mask that can extend beyond the
	// step they run at, so only mask sanity is enforced for them.
	m := p.Pattern.NumEdges()
	for t := range p.Steps {
		for i, op := range p.Steps[t].Ops {
			if op.Mask == 0 || bits.Len32(op.Mask) > m {
				return fmt.Errorf("%w: step %d op %d (%s): mask %b outside the pattern's %d hyperedges",
					ErrInvalidPlan, t, i, op.Kind, op.Mask, m)
			}
			if op.Kind == OpIntersectCount && p.Mode == ModeMerged && bits.OnesCount32(op.Mask) == 2 {
				return fmt.Errorf("%w: step %d op %d: pairwise size check of mask %b in a merged plan (generation guarantees it; should have been dropped)",
					ErrInvalidPlan, t, i, op.Mask)
			}
			switch op.Kind {
			case OpIntersect, OpIntersectCount, OpIntersectEq, OpEmptyCheck:
				if maxBit(op.Mask) != t {
					return fmt.Errorf("%w: step %d op %d (%s): mask %b becomes computable at step %d, not here",
						ErrInvalidPlan, t, i, op.Kind, op.Mask, maxBit(op.Mask))
				}
			case OpEqCheck:
				if maxBit(op.Mask) > t {
					return fmt.Errorf("%w: step %d op %d (eq): mask %b not yet computable at step %d",
						ErrInvalidPlan, t, i, op.Mask, t)
				}
			}
		}
	}

	// Symmetry-breaking restrictions: every entry must name a strictly
	// earlier position exactly once (sorted, so the check is deterministic);
	// an unrestricted plan must carry none; and a restricted plan's lists
	// must equal the stabilizer-chain derivation from its own pattern — a
	// drifted restriction set silently over- or under-counts, which is
	// exactly the class of corruption this verifier exists to refuse.
	anyRestrict := false
	for t := range p.Steps {
		prev := -1
		for _, j := range p.Steps[t].Restrict {
			if j < 0 || j >= t {
				return fmt.Errorf("%w: step %d: restriction references position %d, outside the bound prefix [0,%d)",
					ErrInvalidPlan, t, j, t)
			}
			if j <= prev {
				return fmt.Errorf("%w: step %d: restriction positions not strictly ascending (%d after %d)",
					ErrInvalidPlan, t, j, prev)
			}
			prev = j
			anyRestrict = true
		}
	}
	if anyRestrict != p.Restricted {
		return fmt.Errorf("%w: Restricted=%v but the steps carry restrictions=%v",
			ErrInvalidPlan, p.Restricted, anyRestrict)
	}
	if p.Restricted {
		want := p.Pattern.SymmetryRestrictions()
		for t := range p.Steps {
			got := p.Steps[t].Restrict
			if len(got) != len(want[t]) {
				return fmt.Errorf("%w: step %d: %d restrictions, the pattern's automorphism group derives %d",
					ErrInvalidPlan, t, len(got), len(want[t]))
			}
			for i := range got {
				if got[i] != want[t][i] {
					return fmt.Errorf("%w: step %d: restriction c%d<c%d does not match the derivation (want c%d<c%d)",
						ErrInvalidPlan, got[i], t, t, want[t][i], t)
				}
			}
		}
	}

	// Container hints: range-valid, and a bitmap hint must be satisfiable —
	// only Edge operands resolve through the DAL's container arena; slot
	// buffers are plain worker arrays, so a bitmap hint on a slots-only op
	// promises a representation no operand can have.
	for t := range p.Steps {
		for i, op := range p.Steps[t].Ops {
			if op.Hint > HintBitmap {
				return fmt.Errorf("%w: step %d op %d (%s): unknown container hint %d",
					ErrInvalidPlan, t, i, op.Kind, op.Hint)
			}
			if op.Hint == HintBitmap && !opReadsEdge(op) {
				return fmt.Errorf("%w: step %d op %d (%s): bitmap container hint on an op with no hyperedge operand (slots are array-only)",
					ErrInvalidPlan, t, i, op.Kind)
			}
		}
	}

	if p.FP != 0 {
		if got := Fingerprint(p); got != p.FP {
			return fmt.Errorf("%w: fingerprint %#x does not match compiled fingerprint %#x: a field that affects counting was modified after compilation",
				ErrInvalidPlan, got, p.FP)
		}
	}
	return nil
}

// opReadsEdge reports whether any operand op reads is a hyperedge vertex set
// (as opposed to a slot buffer).
func opReadsEdge(op Op) bool {
	if op.A.Edge {
		return true
	}
	switch op.Kind {
	case OpIntersect, OpIntersectEq, OpEmptyCheck, OpSubsetCheck, OpIntersectCount:
		if op.B.Edge {
			return true
		}
	}
	switch op.Kind {
	case OpIntersectEq, OpEqCheck:
		if op.Eq.Edge {
			return true
		}
	}
	return false
}

// slotRef names one slot-read operand of an op for diagnostics.
type slotRef struct {
	role string
	o    Operand
}

// opSlotReads returns the slot operands op reads (writes excluded).
func opSlotReads(op Op) []slotRef {
	var out []slotRef
	add := func(role string, o Operand) {
		if !o.Edge {
			out = append(out, slotRef{role, o})
		}
	}
	add("A", op.A)
	switch op.Kind {
	case OpIntersect, OpIntersectEq, OpEmptyCheck, OpSubsetCheck, OpIntersectCount:
		add("B", op.B)
	}
	switch op.Kind {
	case OpIntersectEq, OpEqCheck:
		add("Eq", op.Eq)
	}
	return out
}
