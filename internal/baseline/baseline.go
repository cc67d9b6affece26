// Package baseline holds the systems the paper compares OHMiner against and
// ablates it into (Sec. 5.3), kept apart from the production engine so its
// hot loop runs one configuration:
//
//	OHMiner   = GenDAL     + ValOverlap        (merged plan, Sec. 4)
//	OHM-G     = GenDAL     + ValProfiles       (Fig. 15)
//	OHM-V     = GenHGMatch + ValOverlap        (Fig. 13/15)
//	OHM-I     = GenHGMatch + ValOverlapSimple  (IEP only, Fig. 15)
//	HGMatch   = GenHGMatch + ValProfiles       (baseline, Sec. 2.3)
//
// each on any intset.Kernel family (the SIMD ablation: Adaptive, Fast,
// Scalar). It is one plainly written depth-first interpreter of an oig.Plan
// over a dal.Store, parallelised the way the paper's engine is (Sec. 4.4):
// workers claim the candidates of the first pattern hyperedge one at a time.
// It has a deadline, the Fig. 3 instrumentation and symmetry restrictions,
// and nothing else — no context, checkpoint, limit, callback or stealing.
// It reads the store through the accessors internal/engine uses and, at
// Kernel = Adaptive, calls the same intset entry points, so its "OHMiner"
// cell and a production run differ only by the driver; the experiments and
// the differential tests hold the two to equal counts.
package baseline

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ohminer/internal/dal"
	"ohminer/internal/intset"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
	"ohminer/internal/sig"
)

// GenMode selects the candidate-generation strategy.
type GenMode int

const (
	// GenDAL intersects degree-pruned DAL adjacency groups (OHMiner,
	// Sec. 4.5).
	GenDAL GenMode = iota
	// GenHGMatch re-derives candidates from the incident hyperedges of the
	// individual vertices of already-matched hyperedges — the
	// vertex-granularity approach of HGMatch with its inherent redundancy
	// (Sec. 2.3, Fig. 2(a)).
	GenHGMatch
)

// ValMode selects the validation strategy.
type ValMode int

const (
	// ValOverlap executes the merged overlap-centric plan — full OHMiner
	// validation with merge + group pruning.
	ValOverlap ValMode = iota
	// ValOverlapSimple executes the simple (IEP-only) plan: every
	// non-implied overlap intersected and size-checked.
	ValOverlapSimple
	// ValProfiles recomputes per-vertex profiles of the whole partial
	// embedding and compares the multiset against the pattern's — the
	// hash-based vertex-granularity validation of HGMatch (Fig. 2(b)).
	ValProfiles
)

// Variant names one of the paper's system configurations.
type Variant struct {
	Name string
	Gen  GenMode
	Val  ValMode
}

// Variants returns the evaluation matrix of Sec. 5.3.
func Variants() []Variant {
	return []Variant{
		{Name: "OHMiner", Gen: GenDAL, Val: ValOverlap},
		{Name: "OHM-G", Gen: GenDAL, Val: ValProfiles},
		{Name: "OHM-V", Gen: GenHGMatch, Val: ValOverlap},
		{Name: "OHM-I", Gen: GenHGMatch, Val: ValOverlapSimple},
		{Name: "HGMatch", Gen: GenHGMatch, Val: ValProfiles},
	}
}

// VariantByName returns the named configuration.
func VariantByName(name string) (Variant, error) {
	for _, v := range Variants() {
		if v.Name == name {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("baseline: unknown variant %q", name)
}

// Options configures a baseline run.
type Options struct {
	Gen GenMode
	Val ValMode
	// Kernel selects the set-operation family; the zero value means
	// intset.Adaptive, the one production runs.
	Kernel intset.Kernel
	// Workers is the goroutine count; ≤0 means GOMAXPROCS.
	Workers int
	// Instrument adds the phase timers of Fig. 3(a) to the Stats counters
	// (two clock reads per candidate: measurable overhead).
	Instrument bool
}

// Stats carries the counters behind Fig. 3.
type Stats struct {
	// Candidates counts candidate hyperedges enumerated, Embeddings the
	// (partial) embeddings that passed validation.
	Candidates, Embeddings uint64
	// NMFetches counts incident-hyperedge derivations (NM sets) performed
	// by HGMatch-style generation; RedundantNMFetches counts the repeated
	// ones (per extra overlap vertex — Fig. 3(b)).
	NMFetches, RedundantNMFetches uint64
	// ProfileVertices counts vertices whose profile was computed by
	// profile validation; RedundantProfileVertices counts those sharing a
	// profile with an earlier vertex of the same validation (Fig. 3(c)).
	ProfileVertices, RedundantProfileVertices uint64
	// GenTime/ValTime split the time between candidate generation and
	// validation (Fig. 3(a)); only tracked with Options.Instrument.
	GenTime, ValTime time.Duration
}

func (s *Stats) add(o Stats) {
	s.Candidates += o.Candidates
	s.Embeddings += o.Embeddings
	s.NMFetches += o.NMFetches
	s.RedundantNMFetches += o.RedundantNMFetches
	s.ProfileVertices += o.ProfileVertices
	s.RedundantProfileVertices += o.RedundantProfileVertices
	s.GenTime += o.GenTime
	s.ValTime += o.ValTime
}

// Result reports one baseline run; the count fields mean what they mean on
// engine.Result.
type Result struct {
	Ordered       uint64
	Unique        uint64
	Restricted    bool
	Automorphisms int
	Elapsed       time.Duration
	Truncated     bool
	Stats         Stats
	Plan          *oig.Plan
}

// Mine compiles the plan the options call for — simple for ValOverlapSimple,
// merged otherwise, in the matching order the production engine chooses on
// store (oig.ChooseOrder), with symmetry-breaking restrictions — and runs it.
func Mine(ctx context.Context, store *dal.Store, p *pattern.Pattern, opts Options) (Result, error) {
	mode := oig.ModeMerged
	if opts.Val == ValOverlapSimple {
		mode = oig.ModeSimple
	}
	plan, err := oig.CompileOrdered(p, mode, oig.ChooseOrder(store, p, -1))
	if err != nil {
		return Result{}, err
	}
	return MineWithPlan(ctx, store, plan, opts)
}

// MineWithPlan runs a compiled plan: merged for ValOverlap, simple for
// ValOverlapSimple, either for ValProfiles (which reads only the generation
// constraints). It stops as the production engine does: when ctx ends,
// every worker stops at its next candidate, and the partial Result, marked
// Truncated if work was left, comes back with ctx.Err().
func MineWithPlan(ctx context.Context, store *dal.Store, plan *oig.Plan, opts Options) (Result, error) {
	h := store.Hypergraph()
	switch {
	case opts.Val == ValOverlap && plan.Mode != oig.ModeMerged:
		return Result{}, errors.New("baseline: ValOverlap needs a merged plan")
	case opts.Val == ValOverlapSimple && plan.Mode != oig.ModeSimple:
		return Result{}, errors.New("baseline: ValOverlapSimple needs a simple plan")
	case plan.Labeled && !h.Labeled():
		return Result{}, errors.New("baseline: labeled pattern on unlabeled hypergraph")
	case plan.Pattern.EdgeLabeled() && !h.EdgeLabeled():
		return Result{}, errors.New("baseline: hyperedge-labeled pattern on hypergraph without hyperedge labels")
	}
	r := &run{store: store, plan: plan, opts: opts, kernel: opts.Kernel}
	if r.kernel.Intersect == nil {
		r.kernel = intset.Adaptive
	}
	if opts.Val == ValProfiles {
		r.profiles = profileCounts(plan)
	} else {
		r.evals = evals(plan)
	}
	start := time.Now()
	defer context.AfterFunc(ctx, func() { r.stopped.Store(true) })()

	// The paper's first-level dynamic loop: every worker claims the next
	// unclaimed candidate of the first pattern hyperedge and mines its whole
	// subtree, so workers beyond the candidate count are useless and one
	// skewed subtree serializes its worker.
	w0 := newWorker(r)
	first := w0.firstCandidates()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(first) {
		workers = len(first)
	}
	ws := make([]*worker, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := range ws {
		w := w0
		if i > 0 {
			w = newWorker(r)
		}
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(first) {
					return
				}
				if r.stopped.Load() {
					w.truncated = true
					return
				}
				w.mineFrom(first[i])
			}
		}()
	}
	wg.Wait()

	res := Result{Restricted: plan.Restricted, Automorphisms: plan.Pattern.Automorphisms(), Plan: plan}
	var tuples uint64
	for _, w := range ws {
		tuples += w.count
		res.Stats.add(w.stats)
		res.Truncated = res.Truncated || w.truncated
	}
	// A restricted plan enumerated one canonical tuple per unordered
	// embedding, an unrestricted one every ordered tuple.
	if aut := uint64(res.Automorphisms); plan.Restricted {
		res.Unique, res.Ordered = tuples, tuples*aut
	} else {
		res.Unique, res.Ordered = tuples/aut, tuples
	}
	res.Elapsed = time.Since(start)
	return res, ctx.Err()
}

// Keep returns the members of cands that extend prefix, bound to positions
// 0..t-1, at position t = len(prefix) as the pattern says: of the step's
// degree and labels, not bound already, above every restricted binding, and
// with |∩_{i∈S} c_i| = sig[S] — and, labelled, S's label histogram — for
// every subset S ∋ t of the positions 0..t. It reads the plan's pattern,
// signature and restrictions, not its conditions: it is the oracle one step
// of the production engine's filters is held to, for prefixes that are
// partial embeddings.
func Keep(store *dal.Store, plan *oig.Plan, prefix, cands []uint32) []uint32 {
	h := store.Hypergraph()
	t := len(prefix)
	st := &plan.Steps[t]
	tuple := append(slices.Clone(prefix), 0)
	scratch := make([]int, h.NumLabels())
	var out []uint32
next:
	for _, c := range cands {
		if slices.Contains(prefix, c) || st.EdgeLabel >= 0 && (!h.EdgeLabeled() || int64(h.EdgeLabel(c)) != st.EdgeLabel) {
			continue
		}
		for _, j := range st.Restrict {
			if c <= prefix[j] {
				continue next
			}
		}
		tuple[t] = c
		for mask := uint32(1) << t; mask < 1<<(t+1); mask++ {
			ov := h.EdgeVertices(c)
			for rest := mask &^ (1 << t); rest != 0; rest &= rest - 1 {
				ov = intset.Intersect(ov, h.EdgeVertices(tuple[bits.TrailingZeros32(rest)]), nil)
			}
			if len(ov) != plan.Sig.Size(mask) || plan.Labeled && !sig.HistogramMatches(h.Labels(), ov, plan.LabelSig.Counts[mask], scratch) {
				continue next
			}
		}
		out = append(out, c)
	}
	return out
}

// eval is one overlap T(mask) = T(mask∖{t}) ∩ c_t computed at step t =
// maxBit(mask): to check a condition on it (cond), to keep it in the
// worker's per-mask buffer for a later step's overlaps (keep), or both.
type eval struct {
	mask uint32
	cond *oig.Cond
	keep bool
}

// evals lists, per step, the overlaps its conditions check, then those a
// later condition's overlap is built from.
func evals(plan *oig.Plan) [][]eval {
	m := len(plan.Steps)
	keep := make([]bool, 1<<m)
	for _, st := range plan.Steps {
		for _, c := range st.Conds {
			for sub := c.Mask &^ (1 << (bits.Len32(c.Mask) - 1)); sub&(sub-1) != 0; sub &^= 1 << (bits.Len32(sub) - 1) {
				keep[sub] = true
			}
		}
	}
	out := make([][]eval, m)
	for t := range plan.Steps {
		for i := range plan.Steps[t].Conds {
			c := &plan.Steps[t].Conds[i]
			out[t] = append(out[t], eval{mask: c.Mask, cond: c, keep: keep[c.Mask]})
		}
		for mask := uint32(1)<<t + 1; mask < 1<<(t+1); mask++ {
			if keep[mask] && !slices.ContainsFunc(out[t], func(e eval) bool { return e.mask == mask }) {
				out[t] = append(out[t], eval{mask: mask, keep: true})
			}
		}
	}
	return out
}

// profileCounts precomputes, for every prefix 0..t of the plan's reordered
// pattern, the multiset of vertex profiles HGMatch-style validation compares
// against: key = set of prefix hyperedges containing the vertex | label<<32.
func profileCounts(plan *oig.Plan) []map[uint64]int {
	p := plan.Pattern
	out := make([]map[uint64]int, p.NumEdges())
	profiles := make(map[uint32]uint32, p.NumVertices())
	for t := range out {
		for _, v := range p.Edge(t) {
			profiles[v] |= 1 << uint(t)
		}
		counts := make(map[uint64]int, len(profiles))
		for v, mask := range profiles {
			key := uint64(mask)
			if plan.Labeled {
				key |= uint64(p.Label(v)) << 32
			}
			counts[key]++
		}
		out[t] = counts
	}
	return out
}

// run is the state every worker of one run shares; only stopped is written
// while mining.
type run struct {
	store    *dal.Store
	plan     *oig.Plan
	opts     Options
	kernel   intset.Kernel
	profiles []map[uint64]int // ValProfiles only
	evals    [][]eval         // ValOverlap and ValOverlapSimple only
	stopped  atomic.Bool      // set when the run's context ends
}

// firstCandidates lists the data hyperedges with the first pattern
// hyperedge's degree and labels.
func (w *worker) firstCandidates() []uint32 {
	var out []uint32
	for _, c := range w.r.store.EdgesWithDegree(w.r.plan.Steps[0].Degree) {
		if w.labelsOK(0, c) {
			out = append(out, c)
		}
	}
	return out
}

// worker owns the scratch of one mining goroutine; after newWorker the
// search allocates nothing. The slice and map fields are reused across
// steps and must never escape the goroutine (ohmlint's scratch-escape).
//
//ohmlint:scratch
type worker struct {
	r *run

	c    []uint32   // bound hyperedge IDs, c[0..t]
	cand [][]uint32 // candidate list per step
	tmp  [][]uint32 // ping-pong buffer for progressive intersections
	bufs [][]uint32 // overlap T(mask) per hyperedge subset (eval.keep)
	nm   []uint32   // merged incident-hyperedge buffer (GenHGMatch)

	adjSets      []intset.Set // adjacency groups of one generation (GenDAL)
	labelScratch []int        // per-label counter for histogram checks

	edgeMark  []uint32 // stamp array over hyperedges (NM merges)
	edgeStamp uint32
	vertMark  []uint32 // stamp array over vertices (profile validation)
	vertStamp uint32
	profCount map[uint64]int

	count     uint64
	truncated bool
	stats     Stats
}

func newWorker(r *run) *worker {
	h := r.store.Hypergraph()
	m := r.plan.Pattern.NumEdges()
	w := &worker{
		r:       r,
		c:       make([]uint32, m),
		cand:    make([][]uint32, m),
		tmp:     make([][]uint32, m),
		bufs:    make([][]uint32, 1<<m),
		adjSets: make([]intset.Set, 0, m),
	}
	if r.opts.Gen == GenHGMatch {
		w.edgeMark = make([]uint32, h.NumEdges())
	}
	if r.opts.Val == ValProfiles {
		w.vertMark = make([]uint32, h.NumVertices())
		w.profCount = make(map[uint64]int, 64)
	}
	if h.Labeled() {
		w.labelScratch = make([]int, h.NumLabels())
	}
	return w
}

// mineFrom explores the subtree with first bound to position 0, which
// firstCandidates already checked.
//
//ohmlint:hotpath
func (w *worker) mineFrom(first uint32) {
	w.c[0] = first
	if len(w.c) == 1 {
		w.count++
		return
	}
	w.extend(1)
}

// extend binds position t to every candidate that survives accept and
// validate, and recurses.
func (w *worker) extend(t int) {
	instrument := w.r.opts.Instrument
	var t0 time.Time
	if instrument {
		t0 = time.Now()
	}
	var cands []uint32
	if w.r.opts.Gen == GenDAL {
		cands = w.generateDAL(t)
	} else {
		cands = w.generateHGMatch(t)
	}
	if instrument {
		w.stats.GenTime += time.Since(t0)
	}
	w.stats.Candidates += uint64(len(cands))
	for _, c := range cands {
		if w.r.stopped.Load() {
			w.truncated = true
			return
		}
		if !w.accept(t, c) {
			continue
		}
		w.c[t] = c
		if instrument {
			t0 = time.Now()
		}
		var ok bool
		if w.r.opts.Val == ValProfiles {
			ok = w.validateProfiles(t)
		} else {
			ok = w.validateOverlaps(t)
		}
		if instrument {
			w.stats.ValTime += time.Since(t0)
		}
		if !ok {
			continue
		}
		w.stats.Embeddings++
		if t == len(w.c)-1 {
			w.count++
		} else {
			w.extend(t + 1)
		}
	}
}

// accept applies the per-candidate constraints that belong to generation:
// distinctness, the symmetry-breaking restrictions, the pairwise overlap
// sizes where the generator did not already select on them, disconnection —
// skipped under profile validation, which catches a spurious connection
// itself, as HGMatch does — and the labels.
func (w *worker) accept(t int, c uint32) bool {
	h := w.r.store.Hypergraph()
	st := &w.r.plan.Steps[t]
	for j := 0; j < t; j++ {
		if w.c[j] == c {
			return false
		}
	}
	for _, j := range st.Restrict {
		if c <= w.c[j] {
			return false
		}
	}
	if w.r.opts.Gen == GenHGMatch && w.r.opts.Val == ValOverlap {
		// A merged plan leaves the pairwise overlap sizes to whoever
		// generates (oig.Step.ConnOverlap). The DAL's groups carry them;
		// HGMatch-style generation has to count.
		cs := w.r.store.EdgeVertexSet(c)
		for i, j := range st.Conn {
			if w.r.kernel.IntersectCountSets(cs, w.r.store.EdgeVertexSet(w.c[j])) != st.ConnOverlap[i] {
				return false
			}
		}
	}
	if w.r.opts.Val != ValProfiles {
		for _, j := range st.Disc {
			if w.r.opts.Gen == GenDAL {
				if w.r.store.Connected(c, w.c[j]) {
					return false
				}
			} else if intset.Intersects(h.EdgeVertices(c), h.EdgeVertices(w.c[j])) {
				return false
			}
		}
	}
	return w.labelsOK(t, c)
}

// labelsOK reports whether hyperedge c carries the hyperedge label and the
// vertex-label histogram of pattern position t.
func (w *worker) labelsOK(t int, c uint32) bool {
	h := w.r.store.Hypergraph()
	st := &w.r.plan.Steps[t]
	if st.EdgeLabel >= 0 && int64(h.EdgeLabel(c)) != st.EdgeLabel {
		return false
	}
	return !w.r.plan.Labeled || sig.HistogramMatches(h.Labels(), h.EdgeVertices(c), st.EdgeLabels, w.labelScratch)
}

// generateDAL intersects the adjacency groups — of position t's degree and
// of the pattern's overlap size — of the matched hyperedges position t must
// overlap (Sec. 4.5, read from the overlap-grouped store production reads),
// as one k-way kernel call over the DAL's containers.
func (w *worker) generateDAL(t int) []uint32 {
	st := &w.r.plan.Steps[t]
	sets := w.adjSets[:0]
	for i, j := range st.Conn {
		s := w.r.store.AdjSet(w.c[j], st.Degree, st.ConnOverlap[i])
		if s.Len() == 0 {
			return nil
		}
		sets = append(sets, s)
	}
	w.adjSets = sets
	w.cand[t], w.tmp[t] = w.r.kernel.IntersectK(sets, w.cand[t][:0], w.tmp[t][:0])
	return w.cand[t]
}

// generateHGMatch reproduces match-by-hyperedge candidate generation
// (Fig. 2(a)): for every pattern vertex u in the overlap between pe_t and a
// matched pe_j it re-derives NM(u) — the degree-pruned union of the incident
// hyperedges of every vertex of c_j — and intersects all the NM sets. All
// vertices of one overlap yield the same NM, which is the redundant
// computation OHMiner eliminates and Fig. 3(b) counts.
func (w *worker) generateHGMatch(t int) []uint32 {
	st := &w.r.plan.Steps[t]
	acc := w.cand[t][:0]
	firstList := true
	for _, j := range st.Conn {
		overlapVerts := w.r.plan.Sig.Size(uint32(1<<j | 1<<t))
		for u := 0; u < overlapVerts; u++ {
			nm := w.mergeIncident(w.c[j], st.Degree)
			w.stats.NMFetches++
			if u > 0 {
				w.stats.RedundantNMFetches++
			}
			if firstList {
				acc = append(acc[:0], nm...)
				firstList = false
			} else {
				out := w.r.kernel.Intersect(acc, nm, w.tmp[t][:0])
				w.tmp[t], acc = acc, out
			}
			if len(acc) == 0 {
				w.cand[t] = acc
				return acc
			}
		}
	}
	w.cand[t] = acc
	return acc
}

// mergeIncident unions the incident hyperedges of every vertex of edge j,
// keeping only hyperedges of the wanted degree, and returns them sorted.
func (w *worker) mergeIncident(j uint32, degree int) []uint32 {
	h := w.r.store.Hypergraph()
	w.nextEdgeStamp()
	w.nm = w.nm[:0]
	for _, v := range h.EdgeVertices(j) {
		for _, e := range h.VertexEdges(v) {
			if e == j || w.edgeMark[e] == w.edgeStamp {
				continue
			}
			w.edgeMark[e] = w.edgeStamp
			if h.Degree(e) == degree {
				w.nm = append(w.nm, e)
			}
		}
	}
	slices.Sort(w.nm)
	return w.nm
}

// nextEdgeStamp opens a fresh edge-mark generation. On uint32 wraparound
// the mark array is cleared and the stamp restarts at 1: without the
// reset, marks written ~2^32 generations ago would compare equal to the
// recycled stamp and stale hyperedges would be treated as already merged.
func (w *worker) nextEdgeStamp() {
	w.edgeStamp++
	if w.edgeStamp == 0 {
		clear(w.edgeMark)
		w.edgeStamp = 1
	}
}

// nextVertStamp opens a fresh vertex-mark generation, with the same
// wraparound reset as nextEdgeStamp.
func (w *worker) nextVertStamp() {
	w.vertStamp++
	if w.vertStamp == 0 {
		clear(w.vertMark)
		w.vertStamp = 1
	}
}

// validateOverlaps checks the conditions of step t (the EOIG maintenance of
// Sec. 4.4), computing each overlap from the one its newest hyperedge
// extends, and prunes on the first mismatch. An overlap a later step reads,
// or whose labels are checked, is materialised into its buffer; otherwise the
// size alone is counted, or emptiness probed.
func (w *worker) validateOverlaps(t int) bool {
	h := w.r.store.Hypergraph()
	ct := w.r.store.EdgeVertexSet(w.c[t])
	for i := range w.r.evals[t] {
		ev := &w.r.evals[t][i]
		a, c := w.overlap(ev.mask&^(1<<t)), ev.cond
		switch {
		case ev.keep || c.Label != nil:
			w.bufs[ev.mask] = w.r.kernel.IntersectSets(a, ct, w.bufs[ev.mask][:0])
			if c != nil && (len(w.bufs[ev.mask]) != c.Want ||
				c.Label != nil && !sig.HistogramMatches(h.Labels(), w.bufs[ev.mask], c.Label, w.labelScratch)) {
				return false
			}
		case c.Want == 0:
			if w.r.kernel.SetsIntersect(a, ct) {
				return false
			}
		default:
			if w.r.kernel.IntersectCountSets(a, ct) != c.Want {
				return false
			}
		}
	}
	return true
}

// overlap returns T(mask) for the bound prefix: a hyperedge's DAL container,
// or the buffer the step of mask's newest hyperedge filled, as a plain array.
func (w *worker) overlap(mask uint32) intset.Set {
	if mask&(mask-1) == 0 {
		return w.r.store.EdgeVertexSet(w.c[bits.TrailingZeros32(mask)])
	}
	return intset.ArrayView(w.bufs[mask])
}

// validateProfiles recomputes the profile of every distinct vertex of the
// partial embedding and compares the multiset with the pattern's — the
// vertex-granularity validation of HGMatch (Fig. 2(b)). The full recompute
// per step is exactly the redundancy Fig. 3(c) measures.
func (w *worker) validateProfiles(t int) bool {
	h := w.r.store.Hypergraph()
	want := w.r.profiles[t]
	clear(w.profCount)
	w.nextVertStamp()
	total := 0
	for i := 0; i <= t; i++ {
		for _, v := range h.EdgeVertices(w.c[i]) {
			if w.vertMark[v] == w.vertStamp {
				continue
			}
			w.vertMark[v] = w.vertStamp
			var profile uint64
			for k := 0; k <= t; k++ {
				if k == i || intset.Contains(h.EdgeVertices(w.c[k]), v) {
					profile |= 1 << uint(k)
				}
			}
			if w.r.plan.Labeled {
				profile |= uint64(h.Label(v)) << 32
			}
			w.profCount[profile]++
			total++
		}
	}
	distinct := len(w.profCount)
	w.stats.ProfileVertices += uint64(total)
	w.stats.RedundantProfileVertices += uint64(total - distinct)
	if len(w.profCount) != len(want) {
		return false
	}
	for k, n := range want {
		if w.profCount[k] != n {
			return false
		}
	}
	return true
}
