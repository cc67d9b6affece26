package oig

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/bits"
	"slices"

	"ohminer/internal/sig"
)

// ErrInvalidPlan tags every failure reported by VerifyProgram so callers can
// distinguish a malformed plan from an I/O error with errors.Is.
var ErrInvalidPlan = errors.New("oig: invalid plan")

// Fingerprint hashes every plan field that affects the match count: the
// reordered pattern (edges, vertex labels, hyperedge labels), the matching
// order, the compile mode, and each step's generation constraints,
// symmetry-breaking restrictions and conditions. Fields recomputed from these
// (Sig, LabelSig, Graph) and diagnostics (CompileTime) are excluded. Two
// plans with equal fingerprints direct the engine to the same computation; a
// snapshot or lease carrying a stale fingerprint is rejected before any
// candidate is counted.
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
	ints := func(vs []int) {
		wi(len(vs))
		for _, v := range vs {
			wi(v)
		}
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
	if p.Labeled {
		w(1)
		for v := uint32(0); v < uint32(p.Pattern.NumVertices()); v++ {
			w(uint64(p.Pattern.Label(v)))
		}
	} else {
		w(0)
	}
	ints(p.Order)
	wi(len(p.Steps))
	for _, st := range p.Steps {
		wi(st.Degree)
		ints(st.Conn)
		ints(st.ConnOverlap)
		ints(st.Disc)
		// Symmetry-breaking restrictions change what one counted tuple means
		// (an orbit instead of an ordered embedding), so they are hashed by
		// content: a snapshot written by a restriction-less plan can never
		// resume onto a restricted one or vice versa, while asymmetric
		// patterns — whose restriction lists are empty either way — stay
		// interchangeable.
		ints(st.Restrict)
		w(uint64(st.EdgeLabel))
		labels(st.EdgeLabels)
		wi(len(st.Conds))
		for _, c := range st.Conds {
			w(uint64(c.Mask))
			wi(c.Want)
			labels(c.Label)
		}
	}
	return h.Sum64()
}

// VerifyProgram checks a compiled plan and returns the first violation,
// wrapped in ErrInvalidPlan:
//
//   - step metadata re-derived from the pattern: degrees and label
//     histograms, the Conn/Disc partition of the earlier positions by the
//     signature, and every ConnOverlap — the generation contract;
//   - each condition well formed: a Mask of two or more of the pattern's
//     hyperedges, placed at step maxBit(Mask), wanting no more vertices than
//     its smallest hyperedge holds;
//   - each condition true of every embedding: Want = sig[Mask], and a label
//     histogram, if any, the pattern's;
//   - Theorem 1, prefix by prefix: the conditions up to step t and the
//     generation contract imply |∩_{i∈S} c_i| = sig[S] (and, on a labeled
//     plan, the label histogram) for every subset S of positions 0..t — the
//     compiler's class argument, re-derived from the conditions alone;
//   - the symmetry-breaking restrictions re-derived from the pattern;
//   - fingerprint coverage: if the plan carries a compile-time fingerprint,
//     recomputing it must match — any drift means a field that affects
//     counting was modified after compilation.
//
// The compiler runs this as a debug assertion, `ohmplan -verify` exposes it
// on the command line, and the checkpoint/lease load path runs it before
// resuming a snapshot.
func VerifyProgram(p *Plan) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrInvalidPlan}, args...)...)
	}
	m := p.Pattern.NumEdges()
	if len(p.Steps) != m {
		return bad("%d steps for %d hyperedges", len(p.Steps), m)
	}
	for t := range p.Steps {
		st := &p.Steps[t]
		if st.Degree != p.Pattern.Degree(t) {
			return bad("step %d degree %d, the pattern's hyperedge has %d", t, st.Degree, p.Pattern.Degree(t))
		}
		if p.Labeled && !slices.Equal(st.EdgeLabels, p.LabelSig.Counts[1<<t]) {
			return bad("step %d label histogram %v, the pattern's hyperedge has %v", t, st.EdgeLabels, p.LabelSig.Counts[1<<t])
		}
		if len(st.ConnOverlap) != len(st.Conn) {
			return bad("step %d has %d overlap sizes for %d connections", t, len(st.ConnOverlap), len(st.Conn))
		}
		seen := uint32(0)
		for i, j := range st.Conn {
			if j < 0 || j >= t || seen&(1<<j) != 0 {
				return bad("step %d conn %v", t, st.Conn)
			}
			seen |= 1 << j
			if ov := p.Sig.Size(uint32(1<<j | 1<<t)); st.ConnOverlap[i] != ov {
				return bad("step %d asks generation for %d shared vertices with position %d, the pattern's pair shares %d", t, st.ConnOverlap[i], j, ov)
			}
		}
		for _, j := range st.Disc {
			if j < 0 || j >= t || seen&(1<<j) != 0 {
				return bad("step %d disc %v", t, st.Disc)
			}
			seen |= 1 << j
			if p.Sig.Size(uint32(1<<j|1<<t)) != 0 {
				return bad("step %d lists %d as disconnected but the pair overlaps", t, j)
			}
		}
		if seen != 1<<t-1 {
			return bad("step %d covers positions %b of the %d earlier ones", t, seen, t)
		}
		for i, c := range st.Conds {
			if c.Mask >= 1<<m || bits.OnesCount32(c.Mask) < 2 {
				return bad("step %d condition %d: mask %b is not two or more of the pattern's %d hyperedges", t, i, c.Mask, m)
			}
			if maxBit(c.Mask) != t {
				return bad("step %d condition %d: mask %b has its newest hyperedge at step %d", t, i, c.Mask, maxBit(c.Mask))
			}
			for rest := c.Mask; rest != 0; rest &= rest - 1 {
				if j := bits.TrailingZeros32(rest); c.Want > p.Steps[j].Degree {
					return bad("step %d condition %d: wants %d vertices, more than c%d's %d", t, i, c.Want, j, p.Steps[j].Degree)
				}
			}
			if c.Want != p.Sig.Size(c.Mask) {
				return bad("step %d condition %d: wants %d vertices in overlap %b, the pattern's has %d", t, i, c.Want, c.Mask, p.Sig.Size(c.Mask))
			}
			if c.Label != nil && (!p.Labeled || !slices.Equal(c.Label, p.LabelSig.Counts[c.Mask])) {
				return bad("step %d condition %d: label histogram %v of overlap %b is not the pattern's", t, i, c.Label, c.Mask)
			}
		}
	}
	if err := p.verifyImplied(); err != nil {
		return bad("%v", err)
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
				return bad("step %d: restriction references position %d, outside the bound prefix [0,%d)", t, j, t)
			}
			if j <= prev {
				return bad("step %d: restriction positions not strictly ascending (%d after %d)", t, j, prev)
			}
			prev = j
			anyRestrict = true
		}
	}
	if anyRestrict != p.Restricted {
		return bad("Restricted=%v but the steps carry restrictions=%v", p.Restricted, anyRestrict)
	}
	if p.Restricted {
		want := p.Pattern.SymmetryRestrictions()
		for t := range p.Steps {
			if got := p.Steps[t].Restrict; !slices.Equal(got, want[t]) {
				return bad("step %d: restrictions %v do not match the derivation %v", t, got, want[t])
			}
		}
	}

	if p.FP != 0 {
		if got := Fingerprint(p); got != p.FP {
			return bad("fingerprint %#x does not match compiled fingerprint %#x: a field that affects counting was modified after compilation", got, p.FP)
		}
	}
	return nil
}

// verifyImplied checks Theorem 1 prefix by prefix. The facts at step t are
// the conditions of steps ≤ t and the generation contract there: each bound
// hyperedge's degree and label histogram, each Disc pair's emptiness and, in
// a merged plan, each Conn pair's overlap size (a simple plan, the OHM-I
// ablation, runs beside generators that do not keep that half and checks the
// sizes itself). Writing T(M) = ∩_{i∈M} c_i, an empty subset is
// implied by an empty fact on a subset of it. For the others, facts of equal
// size w merge into groups proved to share one data overlap Y: a fact B
// joins a group whose masks' union is U when B ⊆ U (Y = T(U) ⊆ T(B), both of
// size w) or B contains a member (T(B) ⊆ Y). A subset S is implied when some
// group has a member A ⊆ S ⊆ U, so that Y = T(U) ⊆ T(S) ⊆ T(A) = Y — with
// its label histogram when the group holds a labelled fact.
func (p *Plan) verifyImplied() error {
	m := p.Sig.M
	known := make([]bool, 1<<m)    // |T(mask)| is a fact
	labelled := make([]bool, 1<<m) // and so is its label histogram
	empty := make([]bool, 1<<m)    // T(mask) = ∅ is a fact or implied
	var facts []uint32
	fact := func(mask uint32, label bool) {
		if !known[mask] {
			known[mask] = true
			facts = append(facts, mask)
		}
		labelled[mask] = labelled[mask] || label
	}
	for t := 0; t < m; t++ {
		bit := uint32(1) << t
		fact(bit, true)
		if p.Mode == ModeMerged {
			for _, j := range p.Steps[t].Conn {
				fact(1<<j|bit, false)
			}
		}
		for _, j := range p.Steps[t].Disc {
			empty[1<<j|bit] = true
		}
		for _, c := range p.Steps[t].Conds {
			if c.Want == 0 {
				empty[c.Mask] = true
			} else {
				fact(c.Mask, c.Label != nil)
			}
		}
		var groups []factGroup
		for mask := bit + 1; mask < bit<<1; mask++ {
			if bits.OnesCount32(mask) < 2 {
				continue
			}
			if p.Sig.Size(mask) == 0 {
				for rest := mask; rest != 0 && !empty[mask]; rest &= rest - 1 {
					empty[mask] = empty[mask&^(rest&-rest)]
				}
				if !empty[mask] {
					return fmt.Errorf("empty overlap %b is not implied by the conditions up to step %d: no emptiness condition on it or a subset", mask, t)
				}
				continue
			}
			if known[mask] && (labelled[mask] || !p.Labeled) {
				continue
			}
			if groups == nil {
				groups = p.groupFacts(facts, labelled)
			}
			i := slices.IndexFunc(groups, func(g factGroup) bool {
				return g.w == p.Sig.Size(mask) && mask&^g.union == 0 &&
					slices.ContainsFunc(g.masks, func(a uint32) bool { return a&^mask == 0 })
			})
			switch {
			case i < 0:
				return fmt.Errorf("overlap %b (size %d) is not implied by the conditions up to step %d and the generation contract", mask, p.Sig.Size(mask), t)
			case p.Labeled && !groups[i].label:
				return fmt.Errorf("the label histogram of overlap %b is not implied by the conditions up to step %d", mask, t)
			}
		}
	}
	return nil
}

// factGroup is a set of size facts proved to hold one data overlap of size w.
type factGroup struct {
	masks []uint32
	union uint32
	w     int
	label bool
}

// groupFacts merges the non-empty size facts into groups (verifyImplied).
func (p *Plan) groupFacts(facts []uint32, labelled []bool) []factGroup {
	var gs []factGroup
	for _, f := range facts {
		gs = append(gs, factGroup{masks: []uint32{f}, union: f, w: p.Sig.Size(f), label: labelled[f]})
	}
	within := func(g factGroup, u uint32) bool {
		return slices.ContainsFunc(g.masks, func(a uint32) bool { return a&^u == 0 })
	}
	for merged := true; merged; {
		merged = false
		for a := 0; a < len(gs); a++ {
			for b := a + 1; b < len(gs); b++ {
				if gs[a].w != gs[b].w || !within(gs[b], gs[a].union) && !within(gs[a], gs[b].union) {
					continue
				}
				gs[a].masks = append(gs[a].masks, gs[b].masks...)
				gs[a].union |= gs[b].union
				gs[a].label = gs[a].label || gs[b].label
				gs = slices.Delete(gs, b, b+1)
				merged = true
				b--
			}
		}
	}
	return gs
}
