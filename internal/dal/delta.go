// Incremental DAL maintenance for the streaming subsystem: BuildDelta grows
// an existing store by the hyperedges a batch appended, with work that
// follows the batch rather than the store. New hyperedges have IDs above
// every old one, so an old hyperedge's new neighbours join each of its
// (degree, overlap) groups as a suffix and the new IDs join each degree's
// list as a suffix. Neighbour discovery runs for the new edges alone and
// yields the overlap sizes of both directions; every old segment that gains
// neighbours is merged with them and rewritten, with its groups and their
// windows, at the end of the arenas it shares with the previous store; the
// new edges' segments follow. Untouched segments stay where they are: only
// the per-hyperedge bounds table is copied. Every accessor then answers as
// Build's store on the same hypergraph does, and Save writes the same bytes
// (differential-tested in delta_test.go and FuzzBuildDelta). BuildDelta only
// appends: what a rewritten segment leaves behind stays until the owner lays
// the store out afresh with Build, when Moved says so (internal/stream).
package dal

import (
	"math/bits"
	"slices"
	"time"

	"ohminer/internal/hypergraph"
)

// BuildDelta constructs the DAL for h, which must extend prev's hypergraph:
// edges [0, prev.NumEdges()) are unchanged (same vertex sets, hence same
// degrees) and any further edges are new. This is the contract
// hypergraph.Extend provides. prev is not modified and remains valid — a
// concurrent reader mining the old store is unaffected: the first BuildDelta
// from prev writes beyond prev's table lengths, where its readers never
// index, and a second one from the same prev copies the arenas first.
func BuildDelta(prev *Store, h *hypergraph.Hypergraph) *Store {
	m0 := prev.h.NumEdges()
	m := h.NumEdges()
	if m == m0 {
		return prev
	}
	start := time.Now()
	s := &Store{
		h: h, adj: prev.adj, grpDeg: prev.grpDeg, grpOvl: prev.grpOvl, grpStart: prev.grpStart,
		winWords: prev.winWords, grpWinOff: prev.grpWinOff, grpWinBase: prev.grpWinBase,
		evWords: prev.evWords, evOff: prev.evOff, evBase: prev.evBase,
		adjLive: prev.adjLive, grpLive: prev.grpLive,
		degList: slices.Clone(prev.degList), degEdges: slices.Clone(prev.degEdges),
	}
	if !prev.extended.CompareAndSwap(false, true) {
		for _, t := range []*[]uint32{&s.adj, &s.grpDeg, &s.grpOvl, &s.grpStart, &s.grpWinOff, &s.grpWinBase, &s.evOff, &s.evBase} {
			*t = slices.Clip(*t)
		}
		s.winWords, s.evWords = slices.Clip(s.winWords), slices.Clip(s.evWords)
		for k := range s.degEdges {
			s.degEdges[k] = slices.Clip(s.degEdges[k])
		}
	}
	s.spans = make([]span, m)
	copy(s.spans, prev.spans)
	for e := uint32(m0); e < uint32(m); e++ {
		d := uint32(h.Degree(e))
		k, ok := slices.BinarySearch(s.degList, d)
		if !ok {
			s.degList = slices.Insert(s.degList, k, d)
			s.degEdges = slices.Insert(s.degEdges, k, nil)
		}
		s.degEdges[k] = append(s.degEdges[k], e)
	}
	base := keyBase(s.degList)

	// Neighbour discovery for the new edges only: the edges on e's vertices,
	// sorted, list each neighbour o as many times as |e∩o|. New edge m0+i's
	// segment is keys[off[i]:off[i+1]]; the bitmap touched marks the old
	// edges the new ones overlap.
	var walk []uint32
	var keys []uint64
	off := make([]int, 1, m-m0+1)
	touched := make([]uint64, (m0+63)/64)
	for e := uint32(m0); e < uint32(m); e++ {
		walk = walk[:0]
		for _, v := range h.EdgeVertices(e) {
			walk = append(walk, h.VertexEdges(v)...)
		}
		keys = neighbourKeys(h, base, walk, e, keys)
		for _, k := range keys[off[len(off)-1]:] {
			if o := uint32(k); o < uint32(m0) {
				touched[o>>6] |= 1 << (o & 63)
			}
		}
		off = append(off, len(keys))
	}

	// Room for what this delta writes: the new edges' segments, the old
	// segments they join and as many insertions into these as the new
	// segments hold. A segment has no more groups than entries.
	need := 2 * len(keys)
	for w, word := range touched {
		for ; word != 0; word &= word - 1 {
			need += prev.NumNeighbors(uint32(w<<6 + bits.TrailingZeros64(word)))
		}
	}
	reserve(&s.adj, need, s.adjLive)
	for _, t := range []*[]uint32{&s.grpDeg, &s.grpOvl, &s.grpStart} {
		reserve(t, need, s.grpLive)
	}

	// Rewrite each old segment that gained neighbours, merged with its new
	// ones, found on the suffixes of its vertices' lists past m0. Then the
	// new edges' segments.
	var add []uint64
	for w, word := range touched {
		for ; word != 0; word &= word - 1 {
			o := uint32(w<<6 + bits.TrailingZeros64(word))
			walk = walk[:0]
			for _, v := range h.EdgeVertices(o) {
				lst := h.VertexEdges(v)
				j := len(lst)
				for j > 0 && lst[j-1] >= uint32(m0) {
					j--
				}
				walk = append(walk, lst[j:]...)
			}
			add = neighbourKeys(h, base, walk, o, add[:0])
			s.writeSegment(o, base, add, prev, prev.spans[o])
		}
	}
	for i := range m - m0 {
		e := uint32(m0 + i)
		s.writeSegment(e, base, keys[off[i]:off[i+1]], nil, span{})
		s.appendVertexWindow(e)
	}
	s.buildTime = time.Since(start)
	return s
}

// neighbourKeys sorts walk, the edges on e's vertices (or on some of them),
// and appends to dst the packed keys of the distinct ones but e, in
// ascending order: an edge listed c times overlaps e in c vertices.
func neighbourKeys(h *hypergraph.Hypergraph, base []uint32, walk []uint32, e uint32, dst []uint64) []uint64 {
	slices.Sort(walk)
	at := len(dst)
	for i, j := 0, 0; i < len(walk); i = j {
		o := walk[i]
		for j = i + 1; j < len(walk) && walk[j] == o; j++ {
		}
		if o != e {
			dst = append(dst, packKey(base, uint32(h.Degree(o)), o, uint32(j-i)))
		}
	}
	slices.Sort(dst[at:])
	return dst
}

// writeSegment writes hyperedge e's segment — old, prev's, merged with the
// keys — with its groups and their windows at the end of the arenas, and
// moves the live counts from e's old span to the new one.
func (s *Store) writeSegment(e uint32, base []uint32, keys []uint64, prev *Store, old span) {
	was := s.spans[e]
	s.appendSegment(e, base, keys, prev, old, uint32(len(s.adj)), uint32(len(s.grpDeg)))
	s.appendGroupWindows(e)
	sp := s.spans[e]
	s.adjLive += int(sp.adjHi-sp.adjLo) - int(was.adjHi-was.adjLo)
	s.grpLive += int(sp.grpHi-sp.grpLo) - int(was.grpHi-was.grpLo)
}

// reserve makes room in *t for n more entries. A table without it moves to
// one with room for n more besides and for as many entries as the table
// holds live, so that it can take as much garbage as it holds live before
// it has to move again.
func reserve(t *[]uint32, n, live int) {
	if cap(*t)-len(*t) < n {
		*t = append(make([]uint32, 0, len(*t)+n+max(n, live)), *t...)
	}
}

// Moved reports the adjacency and group entries rewritten segments left
// behind, and the live entries of both tables; Build and Load move none.
func (s *Store) Moved() (moved, live int) {
	return len(s.adj) - s.adjLive + len(s.grpDeg) - s.grpLive, s.adjLive + s.grpLive
}
