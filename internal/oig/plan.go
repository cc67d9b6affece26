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
	// ModeSimple checks every non-implied hyperedge subset with its own
	// intersection + size comparison. It embodies the IEP optimization alone
	// (set intersections instead of set differences and vertex profiles) —
	// the OHM-I ablation of Sec. 5.3.
	ModeSimple Mode = iota
	// ModeMerged additionally applies the OIG merge optimization: subsets
	// whose pattern overlap is the same vertex set form a class; only the
	// ⊆-minimal subsets are computed (the first with a size check, the
	// others with set-equality checks against the class representative),
	// plus subset-completion checks for hyperedges the minimal subsets do
	// not cover. All other subsets are implied — full OHMiner.
	ModeMerged
)

func (m Mode) String() string {
	if m == ModeMerged {
		return "merged"
	}
	return "simple"
}

// OpKind enumerates validation operations.
type OpKind int

const (
	// OpIntersect computes Out = A ∩ B and requires |Out| == Want (and the
	// label histogram to match LabelWant for labeled patterns).
	OpIntersect OpKind = iota
	// OpIntersectEq computes Out = A ∩ B and requires Out to equal the set
	// held by Eq (the class representative).
	OpIntersectEq
	// OpEmptyCheck requires A ∩ B == ∅ (early-exit probe; minimal empty
	// overlap of ≥3 hyperedges — pairs are handled by generation-time
	// disconnection checks).
	OpEmptyCheck
	// OpSubsetCheck requires the set held by A to be a subset of the set
	// held by B (class-union completion, e.g. a pattern hyperedge nested in
	// another).
	OpSubsetCheck
	// OpEqCheck requires the sets held by A and Eq to be equal without
	// computing an intersection (a pattern hyperedge whose vertex set
	// coincides with an overlap).
	OpEqCheck
	// OpIntersectCount requires |A ∩ B| == Want without materializing the
	// overlap — emitted by the compiler's dead-slot pass for intersections
	// whose output no later operation reads (Out is -1). Never pairwise in a
	// merged plan: generation guarantees those sizes (Step.ConnOverlap).
	OpIntersectCount
)

var opNames = [...]string{"intersect", "intersect-eq", "empty", "subset", "eq", "intersect-count"}

func (k OpKind) String() string { return opNames[k] }

// Operand names a set available during matching: either the candidate
// hyperedge bound at position Pos of the matching order, or a previously
// computed overlap buffer slot.
type Operand struct {
	Edge bool
	Pos  int // matching-order position (Edge) or slot index (!Edge)
}

func (o Operand) String() string {
	if o.Edge {
		return fmt.Sprintf("c%d", o.Pos)
	}
	return fmt.Sprintf("s%d", o.Pos)
}

// ContainerHint advises the engine which set representation the operands of
// an operation are expected to arrive in. Hints are chosen after compilation
// from DAL density statistics (engine.CompilePlan), are purely
// performance-directing — every hint value computes the same result — and
// are therefore excluded from the plan fingerprint: snapshots and cluster
// leases stay exchangeable between builds with different hint policies.
type ContainerHint uint8

const (
	// HintAuto lets the engine pick per call from the operands' actual
	// representations (the adaptive default).
	HintAuto ContainerHint = iota
	// HintArray asserts the operands are array-only, so the engine skips the
	// window-metadata lookup entirely.
	HintArray
	// HintBitmap asserts at least one hyperedge operand is dense enough to
	// be bitmap-backed; the engine resolves edge operands through the DAL's
	// container arena. Requires an Edge operand (slots never carry windows),
	// enforced by VerifyProgram.
	HintBitmap
)

var hintNames = [...]string{"auto", "array", "bitmap"}

func (h ContainerHint) String() string {
	if int(h) < len(hintNames) {
		return hintNames[h]
	}
	return fmt.Sprintf("hint(%d)", uint8(h))
}

// Op is one validation operation of the execution plan.
type Op struct {
	Kind OpKind
	A, B Operand
	Eq   Operand // OpIntersectEq / OpEqCheck comparison target
	Out  int     // destination slot (OpIntersect / OpIntersectEq); -1 otherwise
	Want int     // expected overlap size (OpIntersect)
	// Mask is the hyperedge subset this operation validates (diagnostics).
	Mask uint32
	// LabelWant is the expected label histogram of the overlap, set for
	// OpIntersect on labeled patterns.
	LabelWant []sig.LabelCount
	// Hint is the container expectation for this op's operands (perf-only;
	// see ContainerHint). The compiler emits HintAuto; engine.CompilePlan
	// refines it from DAL degree statistics.
	Hint ContainerHint
}

// Step drives the matching of one pattern hyperedge: candidate generation
// constraints followed by the overlap validations that become ready once
// this hyperedge is bound.
type Step struct {
	// Degree is the required candidate hyperedge degree D(pe_t).
	Degree int
	// Conn lists earlier positions whose candidate must overlap the new
	// candidate, and ConnOverlap, parallel to it, in how many vertices
	// (Sig.Size of the pair). This is the plan's generation contract: a
	// candidate for position t overlaps c[Conn[i]] in exactly ConnOverlap[i]
	// vertices, and whoever generates candidates guarantees it — the engine
	// by intersecting the DAL's (degree, overlap) groups. A merged plan's ops
	// rely on it and never re-check a pairwise size.
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
	// Ops are the validation operations, ordered by (popcount, mask).
	Ops []Op
}

// Plan is the overlap-centric execution plan (Definition 2).
type Plan struct {
	// Pattern is the pattern with hyperedges permuted into matching order;
	// position t of the plan matches Pattern.Edge(t).
	Pattern *pattern.Pattern
	// Order maps matching-order positions to the original hyperedge indices.
	Order []int
	Steps []Step
	// NumSlots is the number of overlap buffers a worker must hold.
	NumSlots int
	Mode     Mode
	Labeled  bool
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
	// Graph is the pattern's OIG (diagnostics, Table 6 accounting).
	Graph *Graph
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
	// hyperedge matched at step i); nil selects the structural
	// MatchingOrder. Used for data-aware orderings built from hypergraph
	// selectivity features.
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
		order = p.MatchingOrder()
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
		Graph:   BuildGraph(rp.Edges()),
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

	switch mode {
	case ModeSimple:
		plan.compileSimple()
	case ModeMerged:
		if err := plan.compileMerged(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("oig: unknown mode %d", mode)
	}
	plan.optimizeCountOnly()
	plan.FP = Fingerprint(plan)
	// Debug assertion: the compiler must only ever emit valid programs. The
	// check is linear in the plan, dwarfed by the exponential compile itself.
	if err := VerifyProgram(plan); err != nil {
		return nil, fmt.Errorf("oig: compiler emitted an invalid plan: %w", err)
	}
	plan.CompileTime = time.Since(start)
	return plan, nil
}

// optimizeCountOnly removes the size work whose answer is already known or
// whose result nobody needs. An OpIntersect whose output slot no later
// operation reads is, when pairwise in a merged plan, dropped — generation
// guarantees the size (Step.ConnOverlap) — and otherwise rewritten into
// OpIntersectCount: the engine then checks the overlap size with
// Kernel.IntersectCount instead of materializing the vertices into a worker
// buffer. Intersections with a label-histogram check keep their output (the
// histogram is computed over the materialized overlap), as does every
// OpIntersectEq (the equality comparison needs the result set). Afterwards
// the surviving slots are compacted so NumSlots reflects the buffers a worker
// actually needs.
func (p *Plan) optimizeCountOnly() {
	read := make([]bool, p.NumSlots)
	markRead := func(o Operand) {
		if !o.Edge {
			read[o.Pos] = true
		}
	}
	for si := range p.Steps {
		for oi := range p.Steps[si].Ops {
			op := &p.Steps[si].Ops[oi]
			markRead(op.A)
			switch op.Kind {
			case OpIntersect, OpIntersectEq, OpEmptyCheck, OpSubsetCheck:
				markRead(op.B)
			}
			switch op.Kind {
			case OpIntersectEq, OpEqCheck:
				markRead(op.Eq)
			}
		}
	}

	// Drop or convert dead-output intersections, then renumber surviving
	// slots in first-write order.
	remap := make([]int, p.NumSlots)
	for i := range remap {
		remap[i] = -1
	}
	slots := 0
	for si := range p.Steps {
		kept := p.Steps[si].Ops[:0]
		for _, op := range p.Steps[si].Ops {
			if op.Kind == OpIntersect && !read[op.Out] && op.LabelWant == nil {
				if p.Mode == ModeMerged && bits.OnesCount32(op.Mask) == 2 {
					continue
				}
				op.Kind = OpIntersectCount
				op.Out = -1
			}
			if (op.Kind == OpIntersect || op.Kind == OpIntersectEq) && remap[op.Out] < 0 {
				remap[op.Out] = slots
				slots++
			}
			kept = append(kept, op)
		}
		p.Steps[si].Ops = kept
	}
	if slots == p.NumSlots {
		return
	}
	reslot := func(o Operand) Operand {
		if !o.Edge {
			o.Pos = remap[o.Pos]
		}
		return o
	}
	for si := range p.Steps {
		for oi := range p.Steps[si].Ops {
			op := &p.Steps[si].Ops[oi]
			op.A = reslot(op.A)
			switch op.Kind {
			case OpIntersect, OpIntersectEq, OpEmptyCheck, OpSubsetCheck, OpIntersectCount:
				op.B = reslot(op.B)
			}
			switch op.Kind {
			case OpIntersectEq, OpEqCheck:
				op.Eq = reslot(op.Eq)
			}
			if op.Kind == OpIntersect || op.Kind == OpIntersectEq {
				op.Out = remap[op.Out]
			}
		}
	}
	p.NumSlots = slots
}

// MustCompile is Compile that panics on error.
func MustCompile(p *pattern.Pattern, mode Mode) *Plan {
	pl, err := Compile(p, mode)
	if err != nil {
		panic(err)
	}
	return pl
}

// maxBit returns the highest set bit index — the matching-order step at
// which the subset becomes computable.
func maxBit(mask uint32) int { return bits.Len32(mask) - 1 }

// impliedZero reports whether some proper subset of mask with ≥2 hyperedges
// has an empty pattern overlap; if so the emptiness of mask's overlap is
// implied by that subset's own check (the group-based pruning of
// Sec. 4.3.2).
func (p *Plan) impliedZero(mask uint32) bool {
	for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
		if bits.OnesCount32(sub) >= 2 && p.Sig.Size(sub) == 0 {
			return true
		}
	}
	return false
}

// labelWant returns the expected label histogram of the overlap for labeled
// patterns (nil for unlabeled).
func (p *Plan) labelWant(mask uint32) []sig.LabelCount {
	if !p.Labeled {
		return nil
	}
	return p.LabelSig.Counts[mask]
}

// chooseB picks the cheapest already-available operand whose subset contains
// position t and is strictly inside mask: the pair/overlap with the smallest
// pattern overlap wins (shorter buffer ⇒ cheaper intersection); the bound
// candidate hyperedge c_t is the fallback.
func (p *Plan) chooseB(mask uint32, t int, bufOf func(uint32) (Operand, bool)) Operand {
	best := Operand{Edge: true, Pos: t}
	bestSize := p.Sig.Size(1 << t)
	for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
		if sub&(1<<t) == 0 || bits.OnesCount32(sub) < 2 {
			continue
		}
		sz := p.Sig.Size(sub)
		if sz == 0 || sz >= bestSize {
			continue
		}
		if op, ok := bufOf(sub); ok {
			best, bestSize = op, sz
		}
	}
	return best
}

// compileSimple emits one OpIntersect per non-implied non-empty subset and
// one OpEmptyCheck per minimal empty subset (≥3 edges); every subset owns a
// slot.
func (p *Plan) compileSimple() {
	m := p.Sig.M
	slotOf := map[uint32]int{}
	bufOf := func(mask uint32) (Operand, bool) {
		if bits.OnesCount32(mask) == 1 {
			return Operand{Edge: true, Pos: maxBit(mask)}, true
		}
		s, ok := slotOf[mask]
		return Operand{Pos: s}, ok
	}
	for _, mask := range masksByStep(m) {
		pc := bits.OnesCount32(mask)
		if pc < 2 {
			continue
		}
		t := maxBit(mask)
		rest := mask &^ (1 << t)
		if p.Sig.Size(mask) == 0 {
			if pc == 2 || p.impliedZero(mask) {
				continue // pair → generation Disc; deeper → implied
			}
			a, _ := bufOf(rest)
			p.Steps[t].Ops = append(p.Steps[t].Ops, Op{
				Kind: OpEmptyCheck, A: a, B: Operand{Edge: true, Pos: t}, Out: -1, Mask: mask,
			})
			continue
		}
		a, _ := bufOf(rest)
		b := p.chooseB(mask, t, bufOf)
		out := p.NumSlots
		p.NumSlots++
		slotOf[mask] = out
		p.Steps[t].Ops = append(p.Steps[t].Ops, Op{
			Kind: OpIntersect, A: a, B: b, Out: out,
			Want: p.Sig.Size(mask), Mask: mask, LabelWant: p.labelWant(mask),
		})
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

// String renders the plan in the style of Table 1.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan(mode=%s, order=%v, slots=%d", p.Mode, p.Order, p.NumSlots)
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
		for _, op := range st.Ops {
			switch op.Kind {
			case OpIntersect:
				fmt.Fprintf(&b, "  s%d ← %s ∩ %s, |·|=%d  (mask %b)", op.Out, op.A, op.B, op.Want, op.Mask)
			case OpIntersectEq:
				fmt.Fprintf(&b, "  s%d ← %s ∩ %s, == %s  (mask %b)", op.Out, op.A, op.B, op.Eq, op.Mask)
			case OpEmptyCheck:
				fmt.Fprintf(&b, "  %s ∩ %s == ∅  (mask %b)", op.A, op.B, op.Mask)
			case OpSubsetCheck:
				fmt.Fprintf(&b, "  %s ⊆ %s  (mask %b)", op.A, op.B, op.Mask)
			case OpEqCheck:
				fmt.Fprintf(&b, "  %s == %s  (mask %b)", op.A, op.Eq, op.Mask)
			case OpIntersectCount:
				fmt.Fprintf(&b, "  |%s ∩ %s| = %d  (mask %b)", op.A, op.B, op.Want, op.Mask)
			}
			if op.Hint != HintAuto {
				fmt.Fprintf(&b, "  [%s]", op.Hint)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// NumOps counts validation operations by kind.
func (p *Plan) NumOps() map[OpKind]int {
	out := map[OpKind]int{}
	for _, st := range p.Steps {
		for _, op := range st.Ops {
			out[op.Kind]++
		}
	}
	return out
}
