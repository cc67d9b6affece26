package oig

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"time"

	"ohminer/internal/pattern"
	"ohminer/internal/sig"
)

// Mode selects how aggressively the compiler eliminates redundant overlap
// computations.
type Mode int

const (
	// ModeSimple checks the size of every non-implied hyperedge subset, one
	// condition each. It embodies the IEP optimization alone (set
	// intersections instead of set differences and vertex profiles) — the
	// OHM-I ablation of Sec. 5.3.
	ModeSimple Mode = iota
	// ModeMerged additionally applies the OIG merge optimization: subsets
	// whose pattern overlap is the same vertex set form a class, and only its
	// ⊆-minimal members and the hyperedges they do not cover get conditions
	// (merged.go). All other subsets are implied — full OHMiner.
	ModeMerged
)

func (m Mode) String() string {
	if m == ModeMerged {
		return "merged"
	}
	return "simple"
}

// Cond is one validation condition: |∩_{i∈Mask} c_i| = Want, the overlap of
// the candidate hyperedges bound at Mask's positions holding exactly Want
// vertices — and, when Label is set, carrying that vertex-label histogram. A
// condition sits at step maxBit(Mask), the step that binds its newest
// hyperedge, and Want is always the pattern's Sig.Size(Mask): every
// condition holds on every embedding, and the compiler picks enough of them
// that, with the generation contract, they imply all of Theorem 1.
type Cond struct {
	Mask  uint32
	Want  int
	Label []sig.LabelCount
}

// Step drives the matching of one pattern hyperedge: candidate generation
// constraints followed by the conditions that become checkable once this
// hyperedge is bound.
type Step struct {
	// Degree is the required candidate hyperedge degree D(pe_t).
	Degree int
	// Conn lists earlier positions whose candidate must overlap the new
	// candidate, and ConnOverlap, parallel to it, in how many vertices
	// (Sig.Size of the pair). This is the plan's generation contract: a
	// candidate for position t overlaps c[Conn[i]] in exactly ConnOverlap[i]
	// vertices, and whoever generates candidates guarantees it — the engine
	// by intersecting the DAL's (degree, overlap) groups. A merged plan's
	// conditions rely on it and never re-check a pairwise size.
	Conn        []int
	ConnOverlap []int
	// Disc lists earlier positions whose candidate must NOT overlap the new
	// candidate: the other half of the generation contract. No candidate for
	// position t shares a vertex with c[j], j ∈ Disc — the engine subtracts
	// the bound hyperedges' DAL neighbour groups from what it generates, and
	// holds a candidate range it is handed (a stolen task, a snapshot's
	// frontier) to the same before exploring it.
	Disc []int
	// EdgeLabels is the label histogram of pe_t (labeled patterns only).
	EdgeLabels []sig.LabelCount
	// EdgeLabel is the hyperedge label of pe_t (hyperedge-labeled patterns
	// only; -1 otherwise). Candidates must carry the same label.
	EdgeLabel int64
	// Restrict lists earlier matching-order positions j whose bound data
	// hyperedge ID must stay strictly below the new candidate's (c[j] < c_t)
	// — the symmetry-breaking ordering constraints derived from the
	// reordered pattern's automorphism group (GraphZero-style). Exactly one
	// of each unordered embedding's |Aut| ordered tuples — the
	// lexicographically smallest — satisfies every restriction, so an engine
	// enforcing them counts unique embeddings directly. Empty on asymmetric
	// patterns and on plans compiled with NoRestrictions.
	Restrict []int
	// Conds are the conditions whose newest hyperedge is this step's,
	// ordered by (popcount, mask).
	Conds []Cond
}

// Plan is the overlap-centric execution plan (Definition 2).
type Plan struct {
	// Pattern is the pattern with hyperedges permuted into matching order;
	// position t of the plan matches Pattern.Edge(t).
	Pattern *pattern.Pattern
	// Order maps matching-order positions to the original hyperedge indices.
	Order   []int
	Steps   []Step
	Mode    Mode
	Labeled bool
	// Sig is the reordered pattern's overlap signature.
	Sig sig.Signature
	// LabelSig is set for labeled patterns.
	LabelSig sig.LabelSignature
	// Restricted reports that the plan carries symmetry-breaking
	// restrictions (some Step.Restrict is non-empty): the engine enumerates
	// one canonical ordered tuple per unordered embedding, ~|Aut|× less work
	// on symmetric patterns. Asymmetric patterns compile identically with or
	// without restrictions and leave this false.
	Restricted bool
	// CompileTime is the wall-clock compilation duration (OIG-T, Table 6).
	CompileTime time.Duration
	// FP is the semantic fingerprint computed by Fingerprint at the end of
	// compilation. VerifyProgram recomputes it to detect post-compile
	// mutation of any field that affects counting; zero means unstamped.
	FP uint64
}

// CompileOptions tunes Compile beyond the mode.
type CompileOptions struct {
	// Order is an explicit matching order (order[i] = index of the pattern
	// hyperedge matched at step i); nil selects ChooseOrder's on flat
	// statistics, the order a plan has without a store. engine.CompilePlan
	// passes ChooseOrder's on the store, the streaming miner the same with
	// position 0 fixed at each anchor.
	Order []int
	// NoRestrictions suppresses the symmetry-breaking pass: the plan
	// enumerates every ordered tuple, |Aut| per unordered embedding — the
	// pre-restriction behavior, kept for the sym ablation, for sampling
	// estimators whose scaling math assumes ordered tuples, and for anchored
	// (position-filtered) counting where a tuple's canonical reordering may
	// fail the filter its original passed.
	NoRestrictions bool
}

// Compile analyzes the pattern and produces its execution plan. The pattern
// is reordered by its matching order internally; symmetry-breaking
// restrictions are emitted by default.
func Compile(p *pattern.Pattern, mode Mode) (*Plan, error) {
	return CompileWith(p, mode, CompileOptions{})
}

// CompileOrdered is Compile with an explicit matching order.
func CompileOrdered(p *pattern.Pattern, mode Mode, order []int) (*Plan, error) {
	return CompileWith(p, mode, CompileOptions{Order: order})
}

// CompileWith is the full-control compiler entry point.
func CompileWith(p *pattern.Pattern, mode Mode, co CompileOptions) (*Plan, error) {
	start := time.Now()
	order := co.Order
	if order == nil {
		order = ChooseOrder(flatStats{}, p, -1)
	}
	rp, err := p.Reorder(order)
	if err != nil {
		return nil, fmt.Errorf("oig: reorder: %w", err)
	}
	m := rp.NumEdges()
	s := rp.Signature()

	plan := &Plan{
		Pattern: rp,
		Order:   order,
		Steps:   make([]Step, m),
		Mode:    mode,
		Labeled: rp.Labeled(),
		Sig:     s,
	}
	if plan.Labeled {
		ls, err := rp.LabelSignature()
		if err != nil {
			return nil, err
		}
		plan.LabelSig = ls
	}

	// Generation constraints per step.
	for t := 0; t < m; t++ {
		st := &plan.Steps[t]
		st.Degree = rp.Degree(t)
		st.EdgeLabel = -1
		if rp.EdgeLabeled() {
			st.EdgeLabel = int64(rp.EdgeLabel(t))
		}
		if plan.Labeled {
			st.EdgeLabels = plan.LabelSig.Counts[1<<t]
		}
		for j := 0; j < t; j++ {
			if ov := s.Size(uint32(1<<j | 1<<t)); ov > 0 {
				st.Conn = append(st.Conn, j)
				st.ConnOverlap = append(st.ConnOverlap, ov)
			} else {
				st.Disc = append(st.Disc, j)
			}
		}
	}

	// Symmetry-breaking pass: derive the stabilizer-chain restrictions of
	// the reordered pattern's automorphism group and attach them to the
	// steps. The counting semantics change (one canonical tuple per orbit),
	// so the restrictions are part of the semantic fingerprint and are
	// re-derived by VerifyProgram.
	if !co.NoRestrictions {
		for t, rs := range rp.SymmetryRestrictions() {
			if len(rs) > 0 {
				plan.Steps[t].Restrict = rs
				plan.Restricted = true
			}
		}
	}

	cs := conds{need: make([]bool, 1<<m), label: make([]bool, 1<<m)}
	switch mode {
	case ModeSimple:
		plan.compileSimple(cs)
	case ModeMerged:
		plan.compileMerged(cs)
	default:
		return nil, fmt.Errorf("oig: unknown mode %d", mode)
	}
	for _, mask := range masksByStep(m) {
		if cs.need[mask] {
			c := Cond{Mask: mask, Want: s.Size(mask)}
			if cs.label[mask] {
				c.Label = plan.LabelSig.Counts[mask]
			}
			plan.Steps[maxBit(mask)].Conds = append(plan.Steps[maxBit(mask)].Conds, c)
		}
	}
	plan.FP = Fingerprint(plan)
	// Debug assertion: the compiler must only ever emit valid programs.
	if err := VerifyProgram(plan); err != nil {
		return nil, fmt.Errorf("oig: compiler emitted an invalid plan: %w", err)
	}
	plan.CompileTime = time.Since(start)
	return plan, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(p *pattern.Pattern, mode Mode) *Plan {
	pl, err := Compile(p, mode)
	if err != nil {
		panic(err)
	}
	return pl
}

// conds marks, per hyperedge subset, whether the plan checks its overlap size
// and whether that check includes the overlap's label histogram.
type conds struct{ need, label []bool }

// add asks for the condition |T(mask)| = sig[mask], with the label histogram
// when label is set on a labeled plan. What no condition has to check is
// dropped: a single hyperedge's size (its degree) and an empty pair
// (Step.Disc) — and in a merged plan every pair without a label histogram,
// whose size generation guarantees (Step.ConnOverlap).
func (p *Plan) add(cs conds, mask uint32, label bool) {
	if p.asks(mask, label) {
		cs.need[mask] = true
		cs.label[mask] = cs.label[mask] || label && p.Labeled
	}
}

// asks reports whether add keeps the condition on mask.
func (p *Plan) asks(mask uint32, label bool) bool {
	switch bits.OnesCount32(mask) {
	case 0, 1:
		return false
	case 2:
		return p.Sig.Size(mask) > 0 && (p.Mode != ModeMerged || label && p.Labeled)
	}
	return true
}

// maxBit returns the highest set bit index — the matching-order step at
// which the subset becomes computable.
func maxBit(mask uint32) int { return bits.Len32(mask) - 1 }

// impliedZero reports whether some proper subset of mask with ≥2 hyperedges
// has an empty pattern overlap; if so the emptiness of mask's overlap is
// implied by that subset's own check (the group-based pruning of
// Sec. 4.3.2).
func impliedZero(s sig.Signature, mask uint32) bool {
	for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
		if bits.OnesCount32(sub) >= 2 && s.Size(sub) == 0 {
			return true
		}
	}
	return false
}

// compileSimple asks for every subset's size: each non-empty one with its
// label histogram, each minimal empty one of three or more hyperedges.
func (p *Plan) compileSimple(cs conds) {
	for mask := uint32(3); mask < 1<<p.Sig.M; mask++ {
		if p.Sig.Size(mask) > 0 || !impliedZero(p.Sig, mask) {
			p.add(cs, mask, true)
		}
	}
}

// masksByStep enumerates all masks ordered by (maxBit, popcount, value) —
// the order in which subsets become ready during matching.
func masksByStep(m int) []uint32 {
	out := make([]uint32, 0, 1<<m)
	for t := 0; t < m; t++ {
		lo := uint32(1) << t
		for mask := lo; mask < lo<<1; mask++ {
			out = append(out, mask)
		}
		slices.SortFunc(out[lo-1:], compareMasks)
	}
	return out
}

// compareMasks orders hyperedge subsets by (popcount, value).
func compareMasks(a, b uint32) int {
	return cmp.Or(cmp.Compare(bits.OnesCount32(a), bits.OnesCount32(b)), cmp.Compare(a, b))
}

// String renders the plan in the style of Table 1: each step's generation
// constraints, then its conditions.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan(mode=%s, order=%v", p.Mode, p.Order)
	if p.Restricted {
		b.WriteString(", restricted")
	}
	b.WriteString(")\n")
	for t, st := range p.Steps {
		fmt.Fprintf(&b, "step %d: gen degree=%d conn=[", t, st.Degree)
		for i, j := range st.Conn {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:%d", j, st.ConnOverlap[i])
		}
		fmt.Fprintf(&b, "] disc=%v", st.Disc)
		for _, j := range st.Restrict {
			fmt.Fprintf(&b, " c%d<c%d", j, t)
		}
		b.WriteByte('\n')
		for _, c := range st.Conds {
			b.WriteString("  |")
			for i, m := 0, c.Mask; m != 0; i, m = i+1, m&(m-1) {
				if i > 0 {
					b.WriteString(" ∩ ")
				}
				fmt.Fprintf(&b, "c%d", bits.TrailingZeros32(m))
			}
			fmt.Fprintf(&b, "| = %d", c.Want)
			if c.Label != nil {
				fmt.Fprintf(&b, ", labels %v", c.Label)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// NumOps returns the number of conditions at each step.
func (p *Plan) NumOps() []int {
	out := make([]int, len(p.Steps))
	for t, st := range p.Steps {
		out[t] = len(st.Conds)
	}
	return out
}
