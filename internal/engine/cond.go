package engine

import (
	"math/bits"
	"slices"
	"time"

	"ohminer/internal/intset"
	"ohminer/internal/oig"
	"ohminer/internal/sig"
)

// This file lays out each step's candidate list as a chain of cached nodes
// that filter it by the plan's conditions (DESIGN.md "Conditions at every
// step"). A condition |∩_{i∈M} c_i| = w of step t ∈ M keeps the candidates c_t
// with |c_t ∩ Y| = w, where Y = T(M∖{t}) is an overlap of hyperedges bound
// before t: the overlap node Y, built once per binding of what it reads.

// cond keeps the candidates c with |c ∩ Y| = want, Y = vdefs[y]. label, when
// set, is the vertex-label histogram c ∩ Y must carry as well.
type cond struct {
	y     int
	want  int
	label []sig.LabelCount
}

func (c cond) equal(d cond) bool {
	return c.y == d.y && c.want == d.want && slices.Equal(c.label, d.label)
}

// vdef defines the overlap node T(m): c_hi's vertex set when sub < 0, else
// vdefs[sub] ∩ c_hi, hi being m's highest position.
type vdef struct {
	m   uint32
	sub int
	hi  int
}

// enode defines one node of a step's chain: its parent's list intersected
// with the (Degree, ov) group of the conn position — the node's own level,
// -1 for none; a node without a parent is that group — less the Degree groups
// of the positions in the disc mask, filtered by conds. Equal definitions are
// one node, whichever steps reach it.
type enode struct {
	parent, conn, ov int
	deg              int
	disc             uint32
	conds            []cond
	// reads are the positions whose bindings decide the node: its cache key.
	reads uint32
	// cached: the node is some node's parent, so it is kept per binding of
	// reads. A node that is not is a step's own list, rebuilt per binding —
	// or, without a parent, disc or conds, one DAL group used as it is.
	cached bool
}

// compileChains lays out every step's chain: one node per position p that
// adds a Conn group, a Disc group or a condition whose newest dependency
// before the step is p. What comes before the first Conn position
// waits for it. last[t] is the node holding step t's list (-1: none).
func compileChains(plan *oig.Plan) (vdefs []vdef, nodes []enode, last []int) {
	// vnode returns the overlap node of m, defining it and, lowest position
	// first, the nodes it is built from.
	vnode := func(m uint32) int {
		i := -1
		for rest := uint32(0); rest != m; {
			hi := bits.TrailingZeros32(m &^ rest)
			rest |= 1 << hi
			sub := i
			if i = slices.IndexFunc(vdefs, func(d vdef) bool { return d.m == rest }); i < 0 {
				vdefs, i = append(vdefs, vdef{m: rest, sub: sub, hi: hi}), len(vdefs)
			}
		}
		return i
	}
	n := len(plan.Steps)
	vdefs, nodes, last = make([]vdef, 0, n), make([]enode, 0, n*(n-1)/2), make([]int, n)
	last[0] = -1
	for t := 1; t < n; t++ {
		st := &plan.Steps[t]
		cur, pend := -1, enode{conn: -1}
		for p := 0; p < t; p++ {
			if k := slices.Index(st.Conn, p); k >= 0 {
				pend.conn, pend.ov, pend.reads = p, st.ConnOverlap[k], pend.reads|1<<p
			}
			if slices.Contains(st.Disc, p) {
				pend.disc, pend.reads = pend.disc|1<<p, pend.reads|1<<p
			}
			for _, c := range st.Conds {
				if y := c.Mask &^ (1 << t); bits.Len32(y)-1 == p {
					pend.conds = append(pend.conds, cond{y: vnode(y), want: c.Want, label: c.Label})
					pend.reads |= y
				}
			}
			if pend.conn < 0 && (cur < 0 || pend.disc == 0 && len(pend.conds) == 0) {
				continue
			}
			pend.parent, pend.deg = cur, st.Degree
			if cur >= 0 {
				pend.reads |= nodes[cur].reads
			}
			cur = slices.IndexFunc(nodes, pend.equal)
			if cur < 0 {
				nodes, cur = append(nodes, pend), len(nodes)
			}
			if pend.parent >= 0 {
				pa := &nodes[pend.parent] // one DAL group as it is stays a view
				pa.cached = pa.parent >= 0 || pa.disc != 0 || len(pa.conds) > 0
			}
			pend = enode{conn: -1}
		}
		last[t] = cur
	}
	return vdefs, nodes, last
}

func (d *enode) equal(o enode) bool {
	return d.parent == o.parent && d.conn == o.conn && d.ov == o.ov && d.deg == o.deg &&
		d.disc == o.disc && slices.EqualFunc(d.conds, o.conds, cond.equal)
}

// node is a worker's copy of one node, valid while the positions it reads
// stay bound to key. Its buffers grow with what is built into them: DAL
// group lengths for a list of hyperedges, hyperedge degrees for an overlap.
//
//ohmlint:scratch
type node struct {
	key   bindings
	arr   []uint32
	words []uint64
	set   intset.Set
	// mark holds the node's list of hyperedges, or its overlap's vertices, as
	// a bitmap; disc, an enode's Disc groups. Each is marked when a probe
	// first needs it for the current bindings.
	mark, disc mark
}

// bindings are what the positions a cached value reads were bound to when it
// was built, empty while it holds nothing.
type bindings []uint32

// holds reports whether the value was built for the bindings c of reads.
func (b bindings) holds(c []uint32, reads uint32) bool {
	if len(b) == 0 {
		return false
	}
	for k, m := 0, reads; m != 0; k, m = k+1, m&(m-1) {
		if b[k] != c[bits.TrailingZeros32(m)] {
			return false
		}
	}
	return true
}

// keyed records that the value now holds the bindings c of reads.
func (b *bindings) keyed(c []uint32, reads uint32) {
	*b = (*b)[:0]
	for m := reads; m != 0; m &= m - 1 {
		*b = append(*b, c[bits.TrailingZeros32(m)])
	}
}

// mark is an operand that stays bound across an inner loop, as a bitmap the
// loop probes instead of merging against (DESIGN.md "Marks"). It is keyed
// like a node, so a stolen or resumed prefix simply misses.
type mark struct {
	key  bindings
	bits intset.Mark
}

// stale reports whether m must be marked anew for the bindings c of reads.
// If so it is cleared — allocated over a universe of n IDs the first time —
// and keyed to them, and the caller marks the operand.
func (m *mark) stale(c []uint32, reads uint32, n int) bool {
	if m.key.holds(c, reads) {
		return false
	}
	if m.key == nil {
		m.bits = intset.NewMark(n) //ohmlint:allow hotpath-alloc -- once per worker and node or vdef, and over the vertices only for an overlap without a bitmap window
	}
	m.drop()
	m.key.keyed(c, reads)
	return true
}

// drop clears m while what it marked is still intact (intset.Mark.Set): a
// node drops its mark before it rebuilds the list the mark was made from.
func (m *mark) drop() {
	m.bits.Reset()
	m.key = m.key[:0]
}

// vset returns the overlap T(m) of vdefs[i] for the current bindings: a bound
// hyperedge as the DAL holds it, an overlap from the worker's cache, built —
// with the bitmap window its density earns — when a position it reads was
// rebound. A stolen or resumed prefix simply misses.
func (w *worker) vset(i int) intset.Set {
	d := &w.e.vdefs[i]
	if d.sub < 0 {
		return w.e.store.EdgeVertexSet(w.c[d.hi])
	}
	n := &w.vnodes[i]
	if n.key.holds(w.c, d.m) {
		return n.set
	}
	n.mark.drop()
	a, b := w.vset(d.sub), w.e.store.EdgeVertexSet(w.c[d.hi])
	w.stats.SetOps++
	w.countKernelClass(intset.Classify(a, b))
	n.arr = intset.IntersectSetsAdaptive(a, b, n.arr[:0])
	n.set = intset.ArrayView(n.arr)
	if base, nw, lo, hi, ok := intset.PlanWords(n.arr); ok {
		n.words = slices.Grow(n.words[:0], nw)[:nw]
		clear(n.words)
		intset.FillWords(n.words, base, n.arr[lo:hi])
		n.set = intset.View(n.arr, n.words, base)
	}
	n.key.keyed(w.c, d.m)
	return n.set
}

// eset returns the list of a parent node for the current bindings: a view of
// its one DAL group, or the worker's cached copy, built when a position it
// reads was rebound.
func (w *worker) eset(i int) intset.Set {
	d := &w.e.nodes[i]
	if !d.cached {
		return w.e.store.AdjSet(w.c[d.conn], d.deg, d.ov)
	}
	n := &w.enodes[i]
	if !n.key.holds(w.c, d.reads) {
		n.mark.drop()
		n.arr = w.keep(w.gen(i, n.arr[:0]), d.conds)
		n.key.keyed(w.c, d.reads)
	}
	return intset.ArrayView(n.arr)
}

// listMark returns node i's list p, which the caller resolved, as a mark.
func (w *worker) listMark(i int, p intset.Set) *intset.Mark {
	m := &w.enodes[i].mark
	if m.stale(w.c, w.e.nodes[i].reads, w.e.store.Hypergraph().NumEdges()) {
		m.bits.Set(p.Elems())
	}
	return &m.bits
}

// discMark returns the union of node i's Disc groups as a mark: every
// neighbour of degree deg of the hyperedges bound at its Disc positions.
func (w *worker) discMark(i int) *intset.Mark {
	d, m := &w.e.nodes[i], &w.enodes[i].disc
	if m.stale(w.c, d.disc, w.e.store.Hypergraph().NumEdges()) {
		for rest := d.disc; rest != 0; rest &= rest - 1 {
			w.adjSets = w.e.store.AdjSets(w.c[bits.TrailingZeros32(rest)], d.deg, w.adjSets[:0])
			for _, g := range w.adjSets {
				m.bits.Set(g.Elems())
			}
		}
	}
	return &m.bits
}

// overlapMark returns the overlap y of vdefs[i], which the caller resolved,
// as a mark over the vertices.
func (w *worker) overlapMark(i int, y intset.Set) *intset.Mark {
	m := &w.vnodes[i].mark
	if m.stale(w.c, w.e.vdefs[i].m, w.e.store.Hypergraph().NumVertices()) {
		m.bits.Set(y.Elems())
	}
	return &m.bits
}

// gen writes into dst what node i starts from — its parent's list
// intersected with the group it adds, or either one alone — less its Disc
// groups. Before its conditions, this is what Stats.Candidates counts.
func (w *worker) gen(i int, dst []uint32) []uint32 {
	d := &w.e.nodes[i]
	var p intset.Set
	if d.parent >= 0 {
		if p = w.eset(d.parent); p.Len() == 0 {
			return dst[:0]
		}
	}
	if d.conn < 0 {
		dst = append(dst[:0], p.Elems()...)
	} else if g := w.e.store.AdjSet(w.c[d.conn], d.deg, d.ov); g.Len() == 0 {
		return dst[:0]
	} else if d.parent < 0 {
		dst = append(dst[:0], g.Elems()...)
	} else {
		w.probed(1)
		dst = w.listMark(d.parent, p).Filter(g.Elems(), true, dst)
	}
	if w.e.opts.Instrument {
		w.stats.Candidates += uint64(len(dst))
	}
	return w.dropDisc(i, dst)
}

// dropDisc removes from cands, in place, what node i's Disc positions rule
// out (Step.Disc): one probe pass into its Disc mark. The groups belong to
// hyperedges that stay bound across the node's rebuilds, where a merge
// would rescan them for every list.
func (w *worker) dropDisc(i int, cands []uint32) []uint32 {
	if w.e.nodes[i].disc == 0 || len(cands) == 0 {
		return cands
	}
	w.probed(1)
	return w.discMark(i).Filter(cands, false, cands[:0])
}

// keep keeps, in place, the candidates that pass every condition of cs, and
// returns them. An overlap without a bitmap window is marked once per
// binding of what it reads, and each candidate counts its vertices in the
// mark; against a windowed one, an early-exit kernel runs per candidate: a
// containment test when want = |Y|, an emptiness test when want = 0, an
// intersection count otherwise. A label histogram needs the overlap itself.
func (w *worker) keep(cands []uint32, cs []cond) []uint32 {
	var t0 time.Time
	if w.e.opts.Instrument {
		t0 = time.Now()
	}
	h := w.e.store.Hypergraph()
	for i := range cs {
		if len(cands) == 0 {
			break
		}
		c := &cs[i]
		y, want := w.vset(c.y), c.want
		// Containment tests against a windowed overlap are neither set ops
		// nor classified.
		kept := cands[:0]
		switch {
		case c.label != nil:
			for _, e := range cands {
				s := w.e.store.EdgeVertexSet(e)
				w.countKernelClass(intset.Classify(y, s))
				w.stats.SetOps++
				w.overlap = intset.IntersectSetsAdaptive(y, s, w.overlap[:0])
				if len(w.overlap) == want && sig.HistogramMatches(h.Labels(), w.overlap, c.label, w.labelScratch) {
					kept = append(kept, e)
				}
			}
		case want > y.Len():
		case !y.HasWindow():
			m := w.overlapMark(c.y, y)
			w.probed(len(cands))
			for _, e := range cands {
				if m.Count(h.EdgeVertices(e)) == want {
					kept = append(kept, e)
				}
			}
		case want == y.Len():
			for _, e := range cands {
				if intset.IsSubsetSets(y, w.e.store.EdgeVertexSet(e)) {
					kept = append(kept, e)
				}
			}
		case want == 0:
			for _, e := range cands {
				s := w.e.store.EdgeVertexSet(e)
				w.countKernelClass(intset.Classify(y, s))
				if !intset.SetsIntersectAdaptive(y, s) {
					kept = append(kept, e)
				}
			}
		default:
			for _, e := range cands {
				s := w.e.store.EdgeVertexSet(e)
				w.countKernelClass(intset.Classify(y, s))
				w.stats.SetOps++
				if intset.IntersectCountSetsAdaptive(y, s) == want {
					kept = append(kept, e)
				}
			}
		}
		cands = kept
	}
	if w.e.opts.Instrument {
		w.stats.ValTime += time.Since(t0)
	}
	return cands
}
