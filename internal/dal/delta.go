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
	"slices"
	"time"

	"ohminer/internal/hypergraph"
)

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
	s.buildDegreeIndex()
	base := s.keyBase()

	// Neighbor discovery for the new edges only, Build's gather walk.
	// Existing edges' vertex sets are immutable, so the only adjacency
	// changes anywhere in the store are (a) the new edges' own lists and (b)
	// new IDs inserted into the lists of the old edges they overlap; add[o]
	// collects both as packed keys, each with the symmetric overlap size.
	hits := make([]uint32, m)
	var touched []uint32
	add := make([][]uint64, m)
	extra := 0
	for e := uint32(m0); e < uint32(m); e++ {
		touched = gatherNeighbours(h, e, hits, touched[:0])
		for _, o := range touched {
			if o != e {
				add[e] = append(add[e], packKey(base, o, hits[o]))
				if o < uint32(m0) {
					add[o] = append(add[o], packKey(base, e, hits[o]))
				}
			}
			hits[o] = 0
		}
	}
	for _, lst := range add {
		slices.Sort(lst)
		extra += len(lst)
	}

	s.adjOff = append(make([]uint32, 0, m+1), 0)
	s.adj = make([]uint32, 0, len(prev.adj)+extra)
	s.grpOff = append(make([]uint32, 0, m+1), 0)
	s.grpDeg = make([]uint32, 0, len(prev.grpDeg))
	s.grpOvl = make([]uint32, 0, len(prev.grpOvl))
	s.grpStart = make([]uint32, 0, len(prev.grpStart))
	var keys []uint64 // the merged keys of the segment being rebuilt
	for e := 0; e < m; e++ {
		if e < m0 && add[e] == nil {
			// A run of untouched segments (it ends before a touched or new
			// hyperedge, which the rest of this iteration handles): bytes
			// and group tables carry over in one append each, offsets and
			// absolute group starts shifted by where the run now begins.
			e2 := e + 1
			for e2 < m0 && add[e2] == nil {
				e2++
			}
			shift, kshift := uint32(len(s.adj))-prev.adjOff[e], uint32(len(s.grpDeg))-prev.grpOff[e]
			k0, k1 := prev.grpOff[e], prev.grpOff[e2]
			s.adj = append(s.adj, prev.adj[prev.adjOff[e]:prev.adjOff[e2]]...)
			s.grpDeg = append(s.grpDeg, prev.grpDeg[k0:k1]...)
			s.grpOvl = append(s.grpOvl, prev.grpOvl[k0:k1]...)
			for _, st := range prev.grpStart[k0:k1] {
				s.grpStart = append(s.grpStart, st+shift)
			}
			for ; e < e2; e++ {
				s.adjOff = append(s.adjOff, prev.adjOff[e+1]+shift)
				s.grpOff = append(s.grpOff, prev.grpOff[e+1]+kshift)
			}
		}
		// Merge the new neighbors into the old sorted segment, whose keys
		// come from the old group table; a new hyperedge has no old segment.
		keys = keys[:0]
		ins := add[e]
		if e < m0 {
			for k := prev.grpOff[e]; k < prev.grpOff[e+1]; k++ {
				for _, o := range prev.groupSlice(uint32(e), k) {
					old := packKey(base, o, prev.grpOvl[k])
					for ; len(ins) > 0 && ins[0] < old; ins = ins[1:] {
						keys = append(keys, ins[0])
					}
					keys = append(keys, old)
				}
			}
		}
		keys = append(keys, ins...)
		s.appendSegment(base, keys)
	}

	s.buildContainers(prev, func(e int) bool { return e >= m0 || add[e] != nil })
	s.buildTime = time.Since(start)
	return s
}
