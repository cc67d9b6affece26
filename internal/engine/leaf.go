package engine

import (
	"math/bits"
	"slices"

	"ohminer/internal/intset"
	"ohminer/internal/oig"
)

// This file restates the ops of a plan's last step t as conditions that
// worker.countLeaf checks against the candidates generation yields, instead
// of running the per-candidate interpreter (validateOverlaps) on each. Every
// op of step t compares c_t with something bound before t, so each one is
// |c_t ∩ Y| = want for a set Y that does not depend on c_t — loop-invariant,
// built once per binding of the positions it reads and cached by the worker.
// With Z bound before t and s = X ∩ c_t a slot written earlier at step t:
//
//	Z ⊆ c_t              Y = Z,     want = |Z|
//	Z ∩ c_t == ∅         Y = Z,     want = 0
//	|Z ∩ c_t| = Want     Y = Z,     want = Want
//	|Z ∩ s| = Want       Y = Z ∩ X, want = Want
//	s ⊆ Z                Y = Z ∩ X, want = Want(s)
//	c_t ⊆ Z              Y = Z,     want = deg(c_t)
//
// A condition on one bound hyperedge c_j that generation already guarantees
// (j ∈ Conn with that overlap size, or j ∈ Disc and want 0) is dropped.
// Equalities, label histograms and operands of any other form have no such
// statement, and their last position is visited (DESIGN.md "Counted last
// position").

// leafCond is one op of the last step t restated as |c_t ∩ Y| = want, where Y
// is a — or a ∩ b when pair is set — resolved from operands bound before t.
type leafCond struct {
	a, b oig.Operand
	pair bool
	// want is the overlap a candidate must have with Y; -1 stands for |Y|, a
	// containment whose size is known only once Y is built.
	want int
	// hint resolves the candidates' vertex sets, as the op naming c_t would.
	hint oig.ContainerHint
	// deps are the positions Y is a function of: its cache key.
	deps uint32
}

// translateLeaf restates the ops of plan's last step as leafConds. ok is false
// when some op has no such form: the last position must then be visited.
func translateLeaf(plan *oig.Plan) (conds []leafCond, ok bool) {
	t := len(plan.Steps) - 1
	st := &plan.Steps[t]
	ct := oig.Operand{Edge: true, Pos: t}
	for i := range st.Ops {
		op := &st.Ops[i]
		if op.LabelWant != nil {
			return nil, false
		}
		// Each op reads an operand z bound before t and one, u, on c_t's
		// side: c_t itself, or a slot s = X ∩ c_t an earlier op of the step
		// wrote, whose X then joins z in Y.
		onT := func(o oig.Operand) bool { return o == ct || writerAt(st.Ops[:i], o) >= 0 }
		c := leafCond{hint: op.Hint}
		var z, u oig.Operand
		switch op.Kind {
		case oig.OpIntersect, oig.OpIntersectCount, oig.OpEmptyCheck:
			z, u = op.A, op.B
			if onT(z) {
				z, u = u, z
			}
			if op.Kind != oig.OpEmptyCheck {
				c.want = op.Want
			}
		case oig.OpSubsetCheck:
			if op.B == ct {
				z, u, c.want = op.A, op.B, -1 // z ⊆ c_t
			} else {
				z, u, c.want = op.B, op.A, st.Degree // u ⊆ z
			}
		default:
			return nil, false
		}
		if onT(z) || !onT(u) {
			return nil, false
		}
		c.a = z
		if u != ct {
			w := &st.Ops[writerAt(st.Ops[:i], u)]
			switch ct {
			case w.A:
				c.b = w.B
			case w.B:
				c.b = w.A
			default:
				return nil, false
			}
			c.pair, c.hint = true, w.Hint
			if op.Kind == oig.OpSubsetCheck {
				// s ⊆ z: s, of size Want(s), lies in X ∩ z.
				c.want = w.Want
			}
		}
		if !c.pair && c.a.Edge {
			j := c.a.Pos
			if c.want < 0 {
				c.want = plan.Steps[j].Degree
			}
			if k := slices.Index(st.Conn, j); k >= 0 && st.ConnOverlap[k] == c.want || c.want == 0 && slices.Contains(st.Disc, j) {
				continue
			}
		}
		c.deps = operandDeps(plan, c.a, t)
		if c.pair {
			c.deps |= operandDeps(plan, c.b, t)
		}
		conds = append(conds, c)
	}
	return conds, true
}

// writerAt returns the index of the last op in ops that writes slot operand
// o, or -1.
func writerAt(ops []oig.Op, o oig.Operand) int {
	if o.Edge {
		return -1
	}
	for i := len(ops) - 1; i >= 0; i-- {
		if op := &ops[i]; (op.Kind == oig.OpIntersect || op.Kind == oig.OpIntersectEq) && op.Out == o.Pos {
			return i
		}
	}
	return -1
}

// operandDeps returns the positions whose bindings decide operand o as seen
// by step before: its own position for a hyperedge, for a slot those of the
// operands of the op that last wrote it at an earlier step.
func operandDeps(plan *oig.Plan, o oig.Operand, before int) uint32 {
	if o.Edge {
		return 1 << o.Pos
	}
	for s := before - 1; s >= 0; s-- {
		if k := writerAt(plan.Steps[s].Ops, o); k >= 0 {
			op := &plan.Steps[s].Ops[k]
			return operandDeps(plan, op.A, s+1) | operandDeps(plan, op.B, s+1)
		}
	}
	return 1<<before - 1 // unreachable for a verified plan: key on the whole prefix
}

// leafOperand is a worker's copy of one leafCond's Y, with the bitmap window
// its density earns, valid while the positions of the cond's deps stay bound
// to key. Its buffers are sized in newWorker from the pattern's degrees, which
// bound every overlap.
//
//ohmlint:scratch
type leafOperand struct {
	key   []uint32
	built bool
	arr   []uint32
	words []uint64
	set   intset.Set
}

// holds reports whether the operand was built for the bindings c of deps.
func (y *leafOperand) holds(c []uint32, deps uint32) bool {
	if !y.built {
		return false
	}
	for k, m := 0, deps; m != 0; k, m = k+1, m&(m-1) {
		if y.key[k] != c[bits.TrailingZeros32(m)] {
			return false
		}
	}
	return true
}

// fill rebuilds the operand as a, or a ∩ b when pair is set, for the bindings
// c of deps, and returns it.
func (y *leafOperand) fill(a, b intset.Set, pair bool, c []uint32, deps uint32) intset.Set {
	for k, m := 0, deps; m != 0; k, m = k+1, m&(m-1) {
		y.key[k] = c[bits.TrailingZeros32(m)]
	}
	if pair {
		y.arr = intset.IntersectSetsAdaptive(a, b, y.arr[:0])
	} else {
		y.arr = append(y.arr[:0], a.Elems()...)
	}
	y.set = intset.ArrayView(y.arr)
	if base, nw, lo, hi, ok := intset.PlanWords(y.arr); ok {
		y.words = y.words[:nw]
		clear(y.words)
		intset.FillWords(y.words, base, y.arr[lo:hi])
		y.set = intset.View(y.arr, y.words, base)
	}
	y.built = true
	return y.set
}

// leafSet returns Y of leaf condition i for the current bindings: a bound
// hyperedge as the DAL holds it, anything else from the worker's cache,
// rebuilt when a position it reads was rebound.
func (w *worker) leafSet(i int) intset.Set {
	c := &w.e.leafConds[i]
	if !c.pair && c.a.Edge {
		return w.resolveSet(c.a, oig.HintAuto)
	}
	y := &w.leafY[i]
	if y.holds(w.c, c.deps) {
		return y.set
	}
	a := w.resolveSet(c.a, oig.HintAuto)
	var b intset.Set
	if c.pair {
		b = w.resolveSet(c.b, oig.HintAuto)
		w.stats.SetOps++
		w.countKernelClass(intset.Classify(a, b))
	}
	return y.fill(a, b, c.pair, w.c, c.deps)
}

// filterLeaf keeps, in place, the candidates of the last position that pass
// every leaf condition, and returns them. One early-exit kernel runs per
// candidate and condition: a containment test when want = |Y|, an emptiness
// test when want = 0, an intersection count otherwise.
func (w *worker) filterLeaf(cands []uint32) []uint32 {
	for i := range w.e.leafConds {
		if len(cands) == 0 {
			break
		}
		c := &w.e.leafConds[i]
		y := w.leafSet(i)
		want := c.want
		if want < 0 {
			want = y.Len()
		}
		// The kernels are counted as validateOverlaps counts the ops they
		// replace: a containment test is neither a set op nor classified.
		kept := cands[:0]
		switch {
		case want > y.Len():
		case want == y.Len():
			for _, e := range cands {
				if intset.IsSubsetSets(y, w.edgeSet(e, c.hint)) {
					kept = append(kept, e)
				}
			}
		case want == 0:
			for _, e := range cands {
				s := w.edgeSet(e, c.hint)
				w.countKernelClass(intset.Classify(y, s))
				if !intset.SetsIntersectAdaptive(y, s) {
					kept = append(kept, e)
				}
			}
		default:
			for _, e := range cands {
				s := w.edgeSet(e, c.hint)
				w.countKernelClass(intset.Classify(y, s))
				w.stats.SetOps++
				if intset.IntersectCountSetsAdaptive(y, s) == want {
					kept = append(kept, e)
				}
			}
		}
		cands = kept
	}
	return cands
}
