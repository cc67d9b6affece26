// Incremental DAL maintenance for the streaming subsystem: BuildDelta grows
// an existing store by the hyperedges a batch appended instead of re-running
// the full offline preprocessing pass. The resulting store is
// field-for-field identical to Build on the extended hypergraph
// (differential-tested in delta_test.go); only the work is different —
// neighbor discovery runs for the new edges alone and yields the overlap
// sizes of both directions, untouched adjacency segments, group tables, and
// container windows are copied from the previous store, and a segment that
// gained neighbors is merged with them, its old entries keyed from the old
// group table.
package dal

import (
	"cmp"
	"slices"
	"time"

	"ohminer/internal/hypergraph"
)

// neighbor is one adjacency entry with its sort key: fields in key order.
type neighbor struct{ deg, ovl, id uint32 }

func compareNeighbors(a, b neighbor) int {
	return cmp.Or(cmp.Compare(a.deg, b.deg), cmp.Compare(a.ovl, b.ovl), cmp.Compare(a.id, b.id))
}

// BuildDelta constructs the DAL for h, which must extend prev's hypergraph:
// edges [0, prev.NumEdges()) are unchanged (same vertex sets, hence same
// degrees) and any further edges are new. This is the contract
// hypergraph.Extend provides. prev is not modified and remains valid — a
// concurrent reader mining the old store is unaffected. A nil prev falls
// back to a full Build.
func BuildDelta(prev *Store, h *hypergraph.Hypergraph) *Store {
	if prev == nil {
		return Build(h)
	}
	m0 := prev.h.NumEdges()
	m := h.NumEdges()
	if m == m0 {
		return prev
	}
	start := time.Now()
	s := &Store{h: h}

	// Neighbor discovery for the new edges only, counting hits as Build's
	// second traversal does. Existing edges' vertex sets are immutable, so
	// the only adjacency changes anywhere in the store are (a) the new edges'
	// own lists and (b) new IDs inserted into the lists of the old edges they
	// overlap; add[o] collects both, each with the symmetric overlap size.
	hits := make([]uint32, m)
	var touched []uint32
	add := make([][]neighbor, m)
	for e := uint32(m0); e < uint32(m); e++ {
		touched = touched[:0]
		for _, v := range h.EdgeVertices(e) {
			for _, o := range h.VertexEdges(v) {
				if hits[o] == 0 {
					touched = append(touched, o)
				}
				hits[o]++
			}
		}
		for _, o := range touched {
			if o != e {
				add[e] = append(add[e], neighbor{uint32(h.Degree(o)), hits[o], o})
				if o < uint32(m0) {
					add[o] = append(add[o], neighbor{uint32(h.Degree(e)), hits[o], e})
				}
			}
			hits[o] = 0
		}
	}
	for _, lst := range add {
		slices.SortFunc(lst, compareNeighbors)
	}

	s.adjOff = make([]uint32, m+1)
	longest := 0 // among the segments that are merged below
	for e := 0; e < m; e++ {
		n := len(add[e])
		if e < m0 {
			n += prev.NumNeighbors(uint32(e))
		}
		if add[e] != nil {
			longest = max(longest, n)
		}
		s.adjOff[e+1] = s.adjOff[e] + uint32(n)
	}
	s.adj = make([]uint32, s.adjOff[m])
	ovl := make([]uint32, longest) // overlap sizes of the segment being merged

	s.grpOff = make([]uint32, m+1)
	s.grpDeg = make([]uint32, 0, len(prev.grpDeg))
	s.grpOvl = make([]uint32, 0, len(prev.grpOvl))
	s.grpStart = make([]uint32, 0, len(prev.grpStart))
	for e := 0; e < m; e++ {
		if e < m0 && add[e] == nil {
			// A run of untouched segments (it ends before a touched or new
			// hyperedge, which the rest of this iteration handles): bytes
			// and group tables carry over in one copy each, the absolute
			// group starts rebased to the new adj offsets (one shift: the
			// segments kept their sizes).
			e2 := e + 1
			for e2 < m0 && add[e2] == nil {
				e2++
			}
			copy(s.adj[s.adjOff[e]:], prev.adj[prev.adjOff[e]:prev.adjOff[e2]])
			shift, kshift := s.adjOff[e]-prev.adjOff[e], uint32(len(s.grpDeg))-prev.grpOff[e]
			k0, k1 := prev.grpOff[e], prev.grpOff[e2]
			s.grpDeg = append(s.grpDeg, prev.grpDeg[k0:k1]...)
			s.grpOvl = append(s.grpOvl, prev.grpOvl[k0:k1]...)
			for _, st := range prev.grpStart[k0:k1] {
				s.grpStart = append(s.grpStart, st+shift)
			}
			for ; e < e2; e++ {
				s.grpOff[e+1] = prev.grpOff[e+1] + kshift
			}
		}
		dst, ins := s.adj[s.adjOff[e]:s.adjOff[e+1]], add[e]
		// Merge the new neighbors into the old (degree, overlap, id)-sorted
		// segment; a new hyperedge has no old segment.
		i := 0
		put := func(n neighbor) {
			dst[i], ovl[i] = n.id, n.ovl
			i++
		}
		if e < m0 {
			for k := prev.grpOff[e]; k < prev.grpOff[e+1]; k++ {
				for _, id := range prev.groupSlice(uint32(e), k) {
					old := neighbor{prev.grpDeg[k], prev.grpOvl[k], id}
					for ; len(ins) > 0 && compareNeighbors(ins[0], old) < 0; ins = ins[1:] {
						put(ins[0])
					}
					put(old)
				}
			}
		}
		for _, n := range ins {
			put(n)
		}
		s.appendGroups(uint32(e), ovl[:i])
		s.grpOff[e+1] = uint32(len(s.grpDeg))
	}

	s.buildDegreeIndex()
	s.buildContainers(prev, func(e int) bool { return e >= m0 || add[e] != nil })
	s.buildTime = time.Since(start)
	return s
}
