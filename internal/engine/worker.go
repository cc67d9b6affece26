package engine

import (
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"ohminer/internal/intset"
	"ohminer/internal/oig"
	"ohminer/internal/sig"
)

// worker owns all mutable state of one mining goroutine; the hot path
// allocates nothing after construction. The slice and map fields are
// per-goroutine scratch whose backing arrays are reused across steps —
// they must never be returned, stored elsewhere, or sent to another
// goroutine (enforced by ohmlint's scratch-escape analyzer).
//
//ohmlint:scratch
type worker struct {
	e     *shared
	found *atomic.Uint64

	// sched/id attach the worker to a work-stealing run (scheduler.go);
	// both stay zero for standalone workers (EstimateCount).
	sched *scheduler
	id    int
	task  task // run buffer: deque hand-offs are copied in here

	c     []uint32   // bound hyperedge IDs, c[0..t]
	cand  [][]uint32 // candidate list buffer per step
	tmp   [][]uint32 // ping-pong buffer for progressive intersections
	slots [][]uint32 // overlap buffers, indexed by plan slot

	labelScratch []int         // per-label counter for histogram checks
	adjSets      []intset.Set  // scratch: adjacency containers of one generation
	leafY        []leafOperand // cached Y per leaf condition (shared.leafConds)

	count uint64
	stop  bool // local mirror of shared.stopped, avoids repeat atomic loads while unwinding
	// saved collects the frontier remainders this worker walked away from
	// while unwinding after a quiesce (checkpointed runs only); the driver
	// drains it between rounds (collectFrontier).
	saved []task
	stats Stats
}

func newWorker(e *shared, found *atomic.Uint64) *worker {
	h := e.store.Hypergraph()
	m := e.plan.Pattern.NumEdges()
	maxDeg := 0
	for t := 0; t < m; t++ {
		if d := e.plan.Steps[t].Degree; d > maxDeg {
			maxDeg = d
		}
	}
	w := &worker{
		e:       e,
		found:   found,
		c:       make([]uint32, m),
		cand:    make([][]uint32, m),
		tmp:     make([][]uint32, m),
		slots:   make([][]uint32, e.plan.NumSlots),
		adjSets: make([]intset.Set, 0, m),
	}
	for t := 0; t < m; t++ {
		w.cand[t] = make([]uint32, 0, 64)
		w.tmp[t] = make([]uint32, 0, 64)
	}
	for i := range w.slots {
		w.slots[i] = make([]uint32, 0, maxDeg)
	}
	// An overlap holds at most maxDeg vertices, and its window at most one
	// word per eight of them (intset.PlanWords).
	w.leafY = make([]leafOperand, len(e.leafConds))
	for i, c := range e.leafConds {
		if c.pair || !c.a.Edge {
			w.leafY[i] = leafOperand{
				key:   make([]uint32, bits.OnesCount32(c.deps)),
				arr:   make([]uint32, 0, maxDeg),
				words: make([]uint64, 0, maxDeg/8+1),
			}
		}
	}
	if h.Labeled() {
		w.labelScratch = make([]int, h.NumLabels())
	}
	return w
}

// step binds position t to every surviving candidate and recurses — or, at
// a last position nothing has to look at hyperedge by hyperedge, counts them.
func (w *worker) step(t int) {
	if t == w.e.countedLeaf && w.countLeaf(t) {
		return
	}
	var t0 time.Time
	instrument := w.e.opts.Instrument
	if instrument {
		t0 = time.Now()
	}
	cands := w.generateDAL(t)
	if instrument {
		w.stats.Candidates += uint64(len(cands))
	}
	cands = w.subtractDisc(t, cands)
	if instrument {
		w.stats.GenTime += time.Since(t0)
	}
	w.explore(t, cands)
}

// countLeaf adds the number of hyperedges position t — the last one, of a
// run in which a binding there is an embedding as soon as accept passes it
// and the step's ops hold (shared.countedLeaf) — can bind, without visiting
// them. Generation already honours Conn and Disc; the restrictions keep the
// candidates above the largest restricted binding, a suffix of the sorted
// list; the ops, restated as leaf conditions (leaf.go), filter what is left
// in place; and the only bound hyperedges generation can produce again sit at
// Disc positions (a hyperedge is no neighbour of itself), one binary search
// each. Without conditions, one Conn operand and at most one Disc, nothing is
// materialised either: the candidates are a DAL group G, the disconnected
// hyperedge's sub-groups N_k of the same degree are pairwise disjoint, and the
// count is |G| − Σ_k |G ∩ N_k|.
//
// It reports false, having counted nothing — no Stats counter included —
// when the stop flag is up or the leaf would reach Limit: the per-candidate
// loop then runs, and stays the only place that truncates a run or saves a
// remainder.
func (w *worker) countLeaf(t int) bool {
	if w.stop || w.e.stopped.Load() {
		return false
	}
	var t0, t1 time.Time // start, and end of generation when the ops filter after it
	instrument := w.e.opts.Instrument
	if instrument {
		t0 = time.Now()
	}
	// A leaf handed back to the per-candidate loop is counted there, kernel
	// calls included: what ran here is taken back.
	setOps, bitmap, mixed, array := w.stats.SetOps, w.stats.KernelBitmap, w.stats.KernelMixed, w.stats.KernelArray
	st := &w.e.plan.Steps[t]
	conds := len(w.e.leafConds) > 0
	// g is what generation yields at t — short of the Disc subtraction where
	// inclusion–exclusion makes up for it below.
	var g intset.Set
	var generated int
	iep := !conds && len(st.Conn) == 1 && len(st.Disc) <= 1
	if iep {
		g = w.e.store.AdjSet(w.c[st.Conn[0]], st.Degree, st.ConnOverlap[0])
		generated = g.Len()
	} else {
		cands := w.generateDAL(t)
		generated = len(cands)
		g = intset.ArrayView(w.subtractDisc(t, cands))
	}
	if k := w.restrictedBelow(st, g.Elems()); k > 0 {
		g = intset.ArrayView(g.Elems()[k:])
	}
	if conds {
		if instrument {
			t1 = time.Now()
		}
		g = intset.ArrayView(w.filterLeaf(g.Elems()))
	}
	n := g.Len()
	for _, j := range st.Disc {
		if iep {
			w.adjSets = w.e.store.AdjSets(w.c[j], st.Degree, w.adjSets[:0])
			for _, nb := range w.adjSets {
				w.countKernelClass(intset.Classify(g, nb))
				n -= intset.IntersectCountSetsAdaptive(g, nb)
			}
		}
		if g.Contains(w.c[j]) {
			n--
		}
	}
	if limit := w.e.opts.Limit; limit > 0 {
		for {
			found := w.found.Load()
			if found+uint64(n) >= limit {
				w.stats.SetOps, w.stats.KernelBitmap, w.stats.KernelMixed, w.stats.KernelArray = setOps, bitmap, mixed, array
				return false
			}
			if w.found.CompareAndSwap(found, found+uint64(n)) {
				break
			}
		}
	}
	w.count += uint64(n)
	if instrument {
		// The filter is the step's validation: its time is ValTime's.
		now := time.Now()
		if t1.IsZero() {
			t1 = now
		}
		w.stats.GenTime += t1.Sub(t0)
		w.stats.ValTime += now.Sub(t1)
		w.stats.Candidates += uint64(generated)
		w.stats.Embeddings += uint64(n)
	}
	return true
}

// restrictedBelow returns how many of the sorted candidates the step's
// symmetry-breaking restrictions reject: those not above every restricted
// binding.
func (w *worker) restrictedBelow(st *oig.Step, cands []uint32) int {
	if len(st.Restrict) == 0 {
		return 0
	}
	floor := w.c[st.Restrict[0]]
	for _, j := range st.Restrict[1:] {
		floor = max(floor, w.c[j])
	}
	k, found := slices.BinarySearch(cands, floor)
	if found {
		k++
	}
	return k
}

// explore iterates the candidates of position t — generated in place by
// step, or handed over in a task. While the position is shallow enough to
// matter (t < splitDepth) and enough candidates remain, the untouched half
// of the range is published for idle workers to steal; the published copy
// and the retained half partition the range, so each subtree is explored
// exactly once regardless of who executes it.
func (w *worker) explore(t int, cands []uint32) {
	last := t == w.e.plan.Pattern.NumEdges()-1
	instrument := w.e.opts.Instrument
	var t0 time.Time
	for i := 0; i < len(cands); i++ {
		// Shared cooperative cancellation: the deadline timer, a context
		// watcher, the checkpoint timer, and the Limit all set one flag,
		// checked with a single atomic load per candidate at every depth
		// (stealing workers included). Returning here leaves candidates
		// i..len-1 unexplored — exactly what Result.Truncated reports, or,
		// on a checkpointed run, exactly the remainder saveTask captures as
		// a frontier task. Both branches run only while unwinding after a
		// stop, never on the steady-state hot path.
		if w.stop || w.e.stopped.Load() {
			w.stop = true
			if w.e.saveOnStop {
				w.saveTask(t, cands[i:])
			} else {
				w.e.abandoned.Store(true)
			}
			return
		}
		if w.sched != nil && t < w.e.splitDepth {
			if rem := len(cands) - i; rem >= 2*w.e.splitThreshold {
				mid := i + rem/2
				if w.publish(t, cands[mid:]) {
					cands = cands[:mid]
				}
			}
		}
		c := cands[i]
		if t > 0 {
			if !w.accept(t, c) {
				continue
			}
			w.c[t] = c
			if instrument {
				t0 = time.Now()
			}
			ok := w.validateOverlaps(t)
			if instrument {
				w.stats.ValTime += time.Since(t0)
			}
			if !ok {
				continue
			}
			if instrument {
				w.stats.Embeddings++
			}
		} else {
			// Position 0 has no validation ops: firstCandidates already
			// enforced the degree/label constraints.
			w.c[0] = c
		}
		if last {
			w.emit()
		} else {
			w.step(t + 1)
		}
	}
}

// emitCallback hands the bound tuple to the user callback under emitMu. The
// unlock is deferred so a panicking callback cannot leave the mutex held —
// peers already blocked in Lock would deadlock the whole run instead of
// unwinding through recoverWorker.
func (w *worker) emitCallback() {
	w.e.emitMu.Lock()
	defer w.e.emitMu.Unlock()
	//ohmlint:allow scratch-escape -- calls are serialized by emitMu and the API documents copy-to-retain
	w.e.opts.OnEmbedding(w.c)
}

// saveTask records the unexplored remainder of the current frame — position
// t still to bind each of cands, with w.c[:t] already bound — as a frontier
// task. Deeper frames save their own remainders first while unwinding, and
// the parent's loop index has already advanced past the candidate whose
// subtree those frames cover, so the saved tasks partition the unexplored
// space exactly: on resume nothing is mined twice and nothing is lost.
//
// The copies below allocate, but only once per frame while unwinding after
// a quiesce — never in steady state.
func (w *worker) saveTask(t int, cands []uint32) {
	w.saved = append(w.saved, task{
		depth:  t,
		prefix: append([]uint32(nil), w.c[:t]...), //ohmlint:allow hotpath-alloc -- quiesce unwind only
		cands:  append([]uint32(nil), cands...),   //ohmlint:allow hotpath-alloc -- quiesce unwind only
	})
}

func (w *worker) emit() {
	w.count++
	if w.e.opts.OnEmbedding != nil && w.isCanonical() {
		w.emitCallback()
	}
	if w.e.opts.Limit > 0 && w.found.Add(1) >= w.e.opts.Limit {
		w.stop = true
		// Cooperative cancellation: peers (including workers busy with
		// stolen subtrees) observe the flag at their next candidate.
		w.e.stopped.Store(true)
	}
}

// isCanonical reports whether the bound tuple is the lexicographically
// smallest among its automorphic reorderings — the UniqueOnly filter. Each
// unordered embedding has exactly one canonical tuple because the bound
// hyperedges are distinct... up to co-extensive labeled duplicates, whose
// tie keeps the original (a permuted tuple must be strictly smaller to
// disqualify).
func (w *worker) isCanonical() bool {
	for _, perm := range w.e.autoPerms {
		for i := range w.c {
			pc := w.c[perm[i]]
			if pc < w.c[i] {
				return false // a strictly smaller reordering exists
			}
			if pc > w.c[i] {
				break
			}
		}
	}
	return true
}

// accept applies the per-candidate constraints generation leaves:
// distinctness, symmetry-breaking restrictions, the position filter and the
// labels. (Disconnection is generation's, see subtractDisc.)
func (w *worker) accept(t int, c uint32) bool {
	st := &w.e.plan.Steps[t]
	for j := 0; j < t; j++ {
		if w.c[j] == c {
			return false
		}
	}
	// Symmetry breaking: the candidate must stay strictly above every
	// restricted earlier binding, so of each unordered embedding's |Aut|
	// ordered tuples only the lexicographically smallest survives. One
	// compare per restriction, before any set operation runs.
	for _, j := range st.Restrict {
		if c <= w.c[j] {
			return false
		}
	}
	if f := w.e.opts.PositionFilter; f != nil && !f(t, c) {
		return false
	}
	h := w.e.store.Hypergraph()
	if st.EdgeLabel >= 0 && (!h.EdgeLabeled() || int64(h.EdgeLabel(c)) != st.EdgeLabel) {
		return false
	}
	if w.e.plan.Labeled && !sig.HistogramMatches(h.Labels(), h.EdgeVertices(c), st.EdgeLabels, w.labelScratch) {
		return false
	}
	return true
}

// validateOverlaps executes the plan's operations for step t — the
// incremental EOIG maintenance of Sec. 4.4: each op extends the embedding's
// overlap state and prunes on the first mismatch. Operands resolve to
// adaptive containers (hyperedge vertex sets carry their DAL bitmap windows
// unless the op's container hint says the degree class is array-only), so
// dense overlaps run the SWAR/probe kernels and sparse ones the array family.
func (w *worker) validateOverlaps(t int) bool {
	h := w.e.store.Hypergraph()
	for i := range w.e.plan.Steps[t].Ops {
		op := &w.e.plan.Steps[t].Ops[i]
		switch op.Kind {
		case oig.OpIntersect:
			a, b := w.resolveSet(op.A, op.Hint), w.resolveSet(op.B, op.Hint)
			w.stats.SetOps++
			w.countKernelClass(intset.Classify(a, b))
			out := intset.IntersectSetsAdaptive(a, b, w.slots[op.Out][:0])
			w.slots[op.Out] = out
			if len(out) != op.Want {
				return false
			}
			if op.LabelWant != nil && !sig.HistogramMatches(h.Labels(), out, op.LabelWant, w.labelScratch) {
				return false
			}
		case oig.OpIntersectCount:
			a, b := w.resolveSet(op.A, op.Hint), w.resolveSet(op.B, op.Hint)
			w.stats.SetOps++
			w.countKernelClass(intset.Classify(a, b))
			if intset.IntersectCountSetsAdaptive(a, b) != op.Want {
				return false
			}
		case oig.OpIntersectEq:
			a, b := w.resolveSet(op.A, op.Hint), w.resolveSet(op.B, op.Hint)
			w.stats.SetOps++
			w.countKernelClass(intset.Classify(a, b))
			out := intset.IntersectSetsAdaptive(a, b, w.slots[op.Out][:0])
			w.slots[op.Out] = out
			if !intset.Equal(out, w.resolve(op.Eq)) {
				return false
			}
		case oig.OpEmptyCheck:
			a, b := w.resolveSet(op.A, op.Hint), w.resolveSet(op.B, op.Hint)
			w.countKernelClass(intset.Classify(a, b))
			if intset.SetsIntersectAdaptive(a, b) {
				return false
			}
		case oig.OpSubsetCheck:
			if !intset.IsSubset(w.resolve(op.A), w.resolve(op.B)) {
				return false
			}
		case oig.OpEqCheck:
			if !intset.Equal(w.resolve(op.A), w.resolve(op.Eq)) {
				return false
			}
		}
	}
	return true
}

func (w *worker) resolve(o oig.Operand) []uint32 {
	if o.Edge {
		return w.e.store.Hypergraph().EdgeVertices(w.c[o.Pos])
	}
	return w.slots[o.Pos]
}

// resolveSet resolves an operand as an adaptive container: hyperedge
// operands come from the DAL's container arena (window metadata skipped
// when the op's hint says the degree class is array-only), slot operands
// are the worker's plain array buffers.
//
//ohmlint:hotpath
func (w *worker) resolveSet(o oig.Operand, hint oig.ContainerHint) intset.Set {
	if o.Edge {
		return w.edgeSet(w.c[o.Pos], hint)
	}
	return intset.ArrayView(w.slots[o.Pos])
}

// edgeSet resolves hyperedge e's vertex set as an adaptive container, as
// resolveSet does an operand bound to it.
func (w *worker) edgeSet(e uint32, hint oig.ContainerHint) intset.Set {
	if hint == oig.HintArray {
		return intset.ArrayView(w.e.store.Hypergraph().EdgeVertices(e))
	}
	return w.e.store.EdgeVertexSet(e)
}

// generateDAL intersects, for the already-matched hyperedges position t
// must overlap, their adjacency groups of the wanted degree and overlap size
// (Sec. 4.5, split by |e∩o|) with one k-way kernel call — which is what
// honours the Conn half of the plan's generation contract
// (Step.ConnOverlap): no candidate with a wrong pairwise overlap size is ever
// produced. (subtractDisc honours the other half.) The groups arrive as
// adaptive containers straight from the DAL's arenas (bitmap windows
// included, never converted), IntersectKAdaptive orders them rarest-first,
// and the scan short-circuits the moment any operand is exhausted. The
// (result, spare) return keeps the worker's ping-pong buffers owned across
// calls.
func (w *worker) generateDAL(t int) []uint32 {
	st := &w.e.plan.Steps[t]
	sets := w.adjSets[:0]
	for i, j := range st.Conn {
		s := w.e.store.AdjSet(w.c[j], st.Degree, st.ConnOverlap[i])
		if s.Len() == 0 {
			w.adjSets = sets
			w.cand[t] = w.cand[t][:0]
			return w.cand[t]
		}
		sets = append(sets, s)
	}
	w.adjSets = sets
	w.countKernelClass(intset.ClassifyK(sets))
	w.cand[t], w.tmp[t] = intset.IntersectKAdaptive(sets, w.cand[t][:0], w.tmp[t][:0])
	return w.cand[t]
}

// subtractDisc is the other half of the generation contract (Step.Disc): it
// removes from cands, in place, every neighbour of the bound hyperedges
// position t must not overlap. Only their sub-groups of the step's degree can
// hold a candidate, and those belong to hyperedges that stay bound — and
// cached — for the whole subtree, where a per-candidate connectivity probe
// reads a different candidate's adjacency every time.
func (w *worker) subtractDisc(t int, cands []uint32) []uint32 {
	st := &w.e.plan.Steps[t]
	for _, j := range st.Disc {
		w.adjSets = w.e.store.AdjSets(w.c[j], st.Degree, w.adjSets[:0])
		for _, nb := range w.adjSets {
			if len(cands) == 0 {
				return cands
			}
			w.countKernelClass(intset.Classify(intset.ArrayView(cands), nb))
			cands = intset.DifferenceSet(cands, nb, cands[:0])
		}
	}
	return cands
}

// countKernelClass attributes one set operation to its kernel path.
func (w *worker) countKernelClass(c intset.PairClass) {
	switch c {
	case intset.ClassBitmap:
		w.stats.KernelBitmap++
	case intset.ClassMixed:
		w.stats.KernelMixed++
	default:
		w.stats.KernelArray++
	}
}
