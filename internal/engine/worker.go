package engine

import (
	"slices"
	"sync/atomic"
	"time"

	"ohminer/internal/checkpoint"
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
	task  checkpoint.Task // run buffer: deque hand-offs are copied in here

	c    []uint32   // bound hyperedge IDs, c[0..t]
	cand [][]uint32 // candidate list buffer per step

	labelScratch []int        // per-label counter for histogram checks
	overlap      []uint32     // scratch: an overlap whose labels a condition checks
	adjSets      []intset.Set // scratch: the Disc groups one mark is built from
	vnodes       []node       // cached overlaps, per shared.vdefs
	enodes       []node       // cached chain nodes, per shared.nodes

	count uint64
	stop  bool // local mirror of shared.stopped, avoids repeat atomic loads while unwinding
	// saved collects the frontier remainders this worker walked away from
	// while unwinding after a quiesce (checkpointed runs only); the driver
	// drains it between rounds (collectFrontier).
	saved []checkpoint.Task
	stats Stats
}

func newWorker(e *shared, found *atomic.Uint64) *worker {
	h := e.store.Hypergraph()
	m := e.plan.Pattern.NumEdges()
	w := &worker{
		e:       e,
		found:   found,
		c:       make([]uint32, m),
		cand:    make([][]uint32, m),
		adjSets: make([]intset.Set, 0, m),
		vnodes:  make([]node, len(e.vdefs)),
		enodes:  make([]node, len(e.nodes)),
	}
	for t := 0; t < m; t++ {
		w.cand[t] = make([]uint32, 0, 64)
	}
	if h.Labeled() {
		w.labelScratch = make([]int, h.NumLabels())
	}
	return w
}

// step binds position t to every candidate its conditions keep and recurses
// — or, at a last position nothing has to look at hyperedge by hyperedge,
// counts them.
func (w *worker) step(t int) {
	var t0 time.Time
	v0, instrument := w.stats.ValTime, w.e.opts.Instrument
	if instrument {
		t0 = time.Now()
	}
	counted := t == w.e.countedLeaf && !w.stop && !w.e.stopped.Load()
	done := counted && w.countLeaf(t)
	var cands []uint32
	if !done {
		cands = w.candidates(t)
	}
	if instrument {
		// The conditions are the step's validation: their time is ValTime's.
		w.stats.GenTime += time.Since(t0) - (w.stats.ValTime - v0)
	}
	if !done && (!counted || !w.tally(len(cands))) {
		w.explore(t, cands)
	}
}

// candidates returns the list position t binds: the last node of its chain,
// held to the per-candidate tests and then to the conditions that node adds.
// A list another step's chain continues from is cached, conditions
// included, and the per-candidate tests copy from it.
func (w *worker) candidates(t int) []uint32 {
	i := w.e.last[t]
	if i < 0 {
		return w.cand[t][:0]
	}
	if d := &w.e.nodes[i]; d.cached {
		w.cand[t] = w.admit(t, w.eset(i).Elems(), w.cand[t][:0])
	} else {
		cands := w.gen(i, w.cand[t][:0])
		w.cand[t] = w.keep(w.admit(t, cands, cands[:0]), d.conds)
	}
	return w.cand[t]
}

// tally counts n bindings of the last position as embeddings. It reports
// false, having counted nothing, when they would reach Limit: the
// per-candidate loop then runs, and stays the only place that truncates a
// run or saves a remainder.
func (w *worker) tally(n int) bool {
	for limit := w.e.opts.Limit; limit > 0; {
		found := w.found.Load()
		if found+uint64(n) >= limit {
			return false
		}
		if w.found.CompareAndSwap(found, found+uint64(n)) {
			break
		}
	}
	w.count += uint64(n)
	if w.e.opts.Instrument {
		w.stats.Embeddings += uint64(n)
	}
	return true
}

// countLeaf counts the last position t without materialising its list, when
// that list is a set X — the group the node adds, or else its parent's list —
// less the node's Disc mark D, or X ∩ P for a group X and a parent list P,
// with no condition added at t-1. The restrictions keep a suffix cut of X, so
// the count is |cut| − #(cut ∩ D) or #(cut ∩ P), cut probed into the mark of
// D or P; the only bound hyperedges the list can hold sit at Disc positions
// (a hyperedge is no neighbour of itself), one bit test each. It counts what
// gen would, and reports false, having counted nothing the chain will not
// count again, when the list has another shape or tally refuses.
func (w *worker) countLeaf(t int) bool {
	i := w.e.last[t]
	d := &w.e.nodes[i]
	withP := d.parent >= 0 && d.conn >= 0
	if len(d.conds) > 0 || withP && d.disc != 0 {
		return false
	}
	var x, p intset.Set
	if d.parent >= 0 {
		p = w.eset(d.parent)
	}
	if x = p; d.conn >= 0 {
		x = w.e.store.AdjSet(w.c[d.conn], d.deg, d.ov)
	}
	// What runs from here on the per-candidate loop repeats if tally
	// refuses: it is taken back then.
	saved := w.stats
	st := &w.e.plan.Steps[t]
	n, all := 0, 0
	if x.Len() > 0 && (!withP || p.Len() > 0) {
		cut := x
		if k := w.restrictedBelow(st, x.Elems()); k > 0 {
			cut = intset.ArrayView(x.Elems()[k:])
		}
		n, all = cut.Len(), x.Len()
		var in, out *intset.Mark // the list keeps cut's members of in, its non-members of out
		switch {
		case withP:
			w.probed(1)
			in = w.listMark(d.parent, p)
			n = in.Count(cut.Elems())
			if all = n; w.e.opts.Instrument && cut.Len() != x.Len() {
				all = in.Count(x.Elems())
			}
		case d.disc != 0:
			w.probed(1)
			out = w.discMark(i)
			n -= out.Count(cut.Elems())
		}
		for _, j := range st.Disc {
			e := w.c[j]
			if cut.Contains(e) && (in == nil || in.Has(e)) && (out == nil || !out.Has(e)) {
				n--
			}
		}
	}
	if w.e.opts.Instrument {
		w.stats.Candidates += uint64(all)
	}
	if !w.tally(n) {
		w.stats = saved
		return false
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

// explore binds position t to each candidate — generated and filtered by
// step, or handed over in a task and filtered by runTask. While the position
// is shallow enough to matter (t < splitDepth) and enough candidates remain,
// the untouched half of the range is published for idle workers to steal;
// the published copy and the retained half partition the range, so each
// subtree is explored exactly once regardless of who executes it.
func (w *worker) explore(t int, cands []uint32) {
	last := t == w.e.plan.Pattern.NumEdges()-1
	instrument := w.e.opts.Instrument
	for i := 0; i < len(cands); i++ {
		// Shared cooperative cancellation: the context's end, the
		// checkpoint timer, and the Limit all set one flag,
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
		w.c[t] = cands[i]
		if instrument && t > 0 {
			w.stats.Embeddings++
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
	w.saved = append(w.saved, checkpoint.Task{
		Depth:  uint32(t),
		Prefix: append([]uint32(nil), w.c[:t]...), //ohmlint:allow hotpath-alloc -- quiesce unwind only
		Cands:  append([]uint32(nil), cands...),   //ohmlint:allow hotpath-alloc -- quiesce unwind only
	})
}

func (w *worker) emit() {
	w.count++
	if w.e.opts.OnEmbedding != nil {
		w.emitCallback()
	}
	if w.e.opts.Limit > 0 && w.found.Add(1) >= w.e.opts.Limit {
		w.stop = true
		// Cooperative cancellation: peers (including workers busy with
		// stolen subtrees) observe the flag at their next candidate.
		w.e.stopped.Store(true)
	}
}

// admit keeps, from in into out (which may be in[:0]), the candidates of
// position t that pass the tests only a single hyperedge can answer:
// distinctness, the symmetry-breaking restrictions, the position filter and
// the labels. Overlaps are the conditions', disconnection generation's.
func (w *worker) admit(t int, in, out []uint32) []uint32 {
	st := &w.e.plan.Steps[t]
	h := w.e.store.Hypergraph()
	f := w.e.opts.PositionFilter
	// Symmetry breaking: a candidate must stay strictly above every
	// restricted earlier binding, so of each unordered embedding's |Aut|
	// ordered tuples only the lexicographically smallest survives — a suffix
	// of the sorted list.
	in = in[w.restrictedBelow(st, in):]
	if f == nil && st.EdgeLabel < 0 && !w.e.plan.Labeled {
		out = append(out, in...)
		for _, c := range w.c[:t] {
			if k, found := slices.BinarySearch(out, c); found {
				out = slices.Delete(out, k, k+1)
			}
		}
		return out
	}
next:
	for _, c := range in {
		for j := 0; j < t; j++ {
			if w.c[j] == c {
				continue next
			}
		}
		if f != nil && !f(t, c, w.c[0]) {
			continue
		}
		if st.EdgeLabel >= 0 && (!h.EdgeLabeled() || int64(h.EdgeLabel(c)) != st.EdgeLabel) {
			continue
		}
		if w.e.plan.Labeled && !sig.HistogramMatches(h.Labels(), h.EdgeVertices(c), st.EdgeLabels, w.labelScratch) {
			continue
		}
		out = append(out, c)
	}
	return out
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

// probed counts n probe passes into a mark, each one set operation of the
// mixed class: a slice checked element by element against a bitmap.
func (w *worker) probed(n int) {
	w.stats.SetOps += uint64(n)
	w.stats.KernelMixed += uint64(n)
}
