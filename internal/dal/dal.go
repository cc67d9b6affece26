// Package dal implements the Degree-aware Data Store of Sec. 4.5, with the
// neighbour groups split one level further than the paper's Table 2.
//
// For every hyperedge e the store keeps adj(e) — the hyperedges overlapping
// e — sorted by (neighbour degree, overlap size |e∩o|, neighbour ID). A
// per-edge group table locates the run of neighbours of degree d sharing
// exactly ov vertices with e (AdjSet), so candidate generation for a pattern
// hyperedge touches only the groups with the pattern's degree and pairwise
// overlap sizes: |e∩o| is a property of two data hyperedges, computed once
// here instead of once per candidate in validation. The sizes are group keys,
// not an array beside adj: they cost memory per group, not per entry.
//
// Construction happens once per hypergraph (offline preprocessing in the
// paper), in two traversals and no comparison sort (buildAdjacency, DESIGN.md
// "DAL layout and build"); BuildTime and MemoryBytes feed the Table 6
// overhead accounting.
package dal

import (
	"slices"
	"time"

	"ohminer/internal/hypergraph"
	"ohminer/internal/intset"
)

// Store is the immutable degree- and overlap-aware adjacency structure over
// one hypergraph.
type Store struct {
	h *hypergraph.Hypergraph

	// CSR of neighbor IDs per edge, each segment sorted by (degree, |e∩o|,
	// id).
	adjOff []uint32
	adj    []uint32

	// Group index: edge e's groups are k ∈ [grpOff[e], grpOff[e+1]), keyed
	// (grpDeg[k], grpOvl[k]) in strictly ascending order; group k spans
	// adj[grpStart[k]:end], where end is the next group's start (or
	// adjOff[e+1] for e's last group).
	grpOff   []uint32
	grpDeg   []uint32
	grpOvl   []uint32
	grpStart []uint32

	// Global degree index: degList holds the sorted distinct hyperedge
	// degrees; the edges of degree degList[k] are
	// degEdges[degOff[k]:degOff[k+1]], ascending. Built once so
	// EdgesWithDegree (the first mining step of every run) and the
	// matching-order cost model answer from a CSR lookup instead of an O(E)
	// scan.
	degList  []uint32
	degOff   []uint32
	degEdges []uint32

	// Adaptive-container arenas: bitmap windows (intset.PlanWords density
	// rule) packed back to back for the groups of the adjacency CSR and for
	// the hyperedge vertex sets. Group k's window words are
	// winWords[grpWinOff[k]:grpWinOff[k+1]] at base grpWinBase[k] (equal
	// offsets mean the group stayed array-only; both tables are nil when no
	// group earned a window, as on every sparse preset); edge e's vertex-set
	// window is evWords[evOff[e]:evOff[e+1]] at base evBase[e]. Built once
	// here so the engine's hot paths assemble intset.Set views without ever
	// converting or allocating; like the degree index, the arenas are derived
	// state rebuilt after Load rather than serialized.
	winWords   []uint64
	grpWinOff  []uint32
	grpWinBase []uint32
	evWords    []uint64
	evOff      []uint32
	evBase     []uint32

	// stats are the group sums the matching-order cost model reads
	// (GroupSum), computed on first use.
	stats groupStats

	buildTime time.Duration
}

// Build constructs the DAL for h.
func Build(h *hypergraph.Hypergraph) *Store {
	start := time.Now()
	s := &Store{h: h}
	s.buildAdjacency()
	s.buildDegreeIndex()
	s.buildContainers(nil, nil)
	s.buildTime = time.Since(start)
	return s
}

// buildAdjacency fills the adjacency CSR and its group table: count every
// hyperedge's neighbours with a stamp array; prefix-sum the counts into
// adjOff; visit every hyperedge o in ID order, re-discover its (neighbour,
// |o∩n|) pairs and append (o, |o∩n|) to each neighbour's segment — adjacency
// and overlap size are symmetric, so every segment comes out ID-ascending —
// then stable-sort each segment on (degree, overlap).
func (s *Store) buildAdjacency() {
	h := s.h
	m := h.NumEdges()

	// Traversal 1: neighbour counts. Every hyperedge stamps itself through
	// its own vertices, hence the −1.
	mark := make([]uint32, m)
	s.adjOff = make([]uint32, m+1)
	longest := 0
	for e := 0; e < m; e++ {
		n := 0
		for _, v := range h.EdgeVertices(uint32(e)) {
			for _, o := range h.VertexEdges(v) {
				if mark[o] != uint32(e)+1 {
					mark[o] = uint32(e) + 1
					n++
				}
			}
		}
		s.adjOff[e+1] = s.adjOff[e] + uint32(n-1)
		longest = max(longest, n-1)
	}

	// Traversal 2: transposed fill. mark turns into the per-neighbour hit
	// counter of the hyperedge being visited — how often the walk re-hits n
	// is |o∩n| — and is zeroed again through the touched list.
	s.adj = make([]uint32, s.adjOff[m])
	ovl := make([]uint32, len(s.adj))
	cursor := slices.Clone(s.adjOff[:m])
	touched := make([]uint32, 0, longest+1)
	clear(mark)
	for o := 0; o < m; o++ {
		touched = touched[:0]
		for _, v := range h.EdgeVertices(uint32(o)) {
			for _, n := range h.VertexEdges(v) {
				if mark[n] == 0 {
					touched = append(touched, n)
				}
				mark[n]++
			}
		}
		for _, n := range touched {
			if n != uint32(o) {
				s.adj[cursor[n]], ovl[cursor[n]] = uint32(o), mark[n]
				cursor[n]++
			}
			mark[n] = 0
		}
	}

	// Sort every segment on (degree, overlap) and size the group table
	// exactly before filling it.
	sorter := segSorter{h: h}
	if longest > insertionMax {
		sorter.key, sorter.key2 = make([]uint64, longest), make([]uint64, longest)
		sorter.id2 = make([]uint32, longest)
	}
	s.grpOff = make([]uint32, m+1)
	for e := 0; e < m; e++ {
		lo, hi := s.adjOff[e], s.adjOff[e+1]
		s.grpOff[e+1] = s.grpOff[e] + uint32(sorter.sort(s.adj[lo:hi], ovl[lo:hi]))
	}
	s.grpDeg = make([]uint32, 0, s.grpOff[m])
	s.grpOvl = make([]uint32, 0, s.grpOff[m])
	s.grpStart = make([]uint32, 0, s.grpOff[m])
	for e := 0; e < m; e++ {
		s.appendGroups(uint32(e), ovl[s.adjOff[e]:s.adjOff[e+1]])
	}
}

// appendGroups appends the group-table entries of edge e's sorted segment;
// ovl holds the overlap size of every segment entry.
func (s *Store) appendGroups(e uint32, ovl []uint32) {
	base := s.adjOff[e]
	seg := s.adj[base:s.adjOff[e+1]]
	for i := 0; i < len(seg); {
		d, ov := uint32(s.h.Degree(seg[i])), ovl[i]
		s.grpDeg = append(s.grpDeg, d)
		s.grpOvl = append(s.grpOvl, ov)
		s.grpStart = append(s.grpStart, base+uint32(i))
		for i++; i < len(seg) && ovl[i] == ov && uint32(s.h.Degree(seg[i])) == d; i++ {
		}
	}
}

// insertionMax is the segment length up to which segSorter sorts by
// insertion: on the dense block hypergraph (141 k segments of ≤ 12
// neighbours) a radix pass's bucket set-up costs more than the moves.
const insertionMax = 48

// segSorter stable-sorts one adjacency segment — ids ascending on entry,
// their overlap sizes beside them — on (degree, overlap), which leaves it in
// (degree, overlap, id) order; the radix scratch holds the longest segment.
type segSorter struct {
	h         *hypergraph.Hypergraph
	key, key2 []uint64
	id2       []uint32
}

// sort returns the number of distinct (degree, overlap) keys in the segment.
func (ss *segSorter) sort(ids, ovl []uint32) (groups int) {
	n := len(ids)
	if n == 0 {
		return 0
	}
	var short [insertionMax]uint64
	key := short[:]
	if n > insertionMax {
		key = ss.key
	}
	key = key[:n]
	var diff uint64
	for i, o := range ids {
		key[i] = uint64(ss.h.Degree(o))<<32 | uint64(ovl[i])
		diff |= key[i] ^ key[0]
	}
	switch {
	case diff == 0:
	case n <= insertionMax:
		for i := 1; i < n; i++ {
			k, id := key[i], ids[i]
			j := i
			for ; j > 0 && key[j-1] > k; j-- {
				key[j], ids[j] = key[j-1], ids[j-1]
			}
			key[j], ids[j] = k, id
		}
	default:
		// LSD radix over the key bytes that differ anywhere in the segment:
		// 256 buckets a pass whatever the largest degree is.
		src, dst, srcID, dstID := key, ss.key2[:n], ids, ss.id2[:n]
		for shift := 0; shift < 64; shift += 8 {
			if diff>>shift&0xff == 0 {
				continue
			}
			var pos [257]int
			for _, k := range src {
				pos[(k>>shift&0xff)+1]++
			}
			for b := 1; b < 256; b++ {
				pos[b] += pos[b-1]
			}
			for i, k := range src {
				b := k >> shift & 0xff
				dst[pos[b]], dstID[pos[b]] = k, srcID[i]
				pos[b]++
			}
			src, dst, srcID, dstID = dst, src, dstID, srcID
		}
		if &srcID[0] != &ids[0] {
			copy(ids, srcID)
		}
		key = src
	}
	groups = 1
	ovl[0] = uint32(key[0])
	for i := 1; i < n; i++ {
		ovl[i] = uint32(key[i])
		if key[i] != key[i-1] {
			groups++
		}
	}
	return groups
}

// buildContainers plans a bitmap window for every adjacency group and every
// hyperedge vertex set that passes intset's density rule, packing the words
// into shared arenas. Also invoked after Load (derived state, not part of the
// serialized format). With a prev store that s extends (BuildDelta) it reuses
// prev's work: the windows of hyperedges that are not affected are copied out
// of prev's arena — their groups are byte-identical, only the arena offsets
// move — and so is the vertex-set arena, which never changes for an existing
// hyperedge.
func (s *Store) buildContainers(prev *Store, affected func(e int) bool) {
	m, m0 := s.h.NumEdges(), 0
	s.grpWinOff = make([]uint32, len(s.grpDeg)+1)
	s.grpWinBase = make([]uint32, len(s.grpDeg))
	s.evOff = make([]uint32, m+1)
	s.evBase = make([]uint32, m)
	if prev != nil {
		m0 = prev.h.NumEdges()
		s.winWords = make([]uint64, 0, len(prev.winWords))
		s.evWords = append(make([]uint64, 0, len(prev.evWords)+m-m0), prev.evWords...)
		copy(s.evOff, prev.evOff[:m0])
		copy(s.evBase, prev.evBase)
	}
	for e := 0; e < m; e++ {
		replan := prev == nil || affected(e)
		for k := s.grpOff[e]; k < s.grpOff[e+1]; k++ {
			s.grpWinOff[k] = uint32(len(s.winWords))
			if replan {
				s.winWords, s.grpWinBase[k] = appendWindow(s.winWords, s.groupSlice(uint32(e), k))
			} else if pk := prev.grpOff[e] + k - s.grpOff[e]; prev.grpWinOff != nil {
				s.winWords = append(s.winWords, prev.winWords[prev.grpWinOff[pk]:prev.grpWinOff[pk+1]]...)
				s.grpWinBase[k] = prev.grpWinBase[pk]
			}
		}
	}
	// No group earned a window (every sparse preset): drop the table, 8
	// bytes of zeros a group.
	if s.grpWinOff[len(s.grpDeg)] = uint32(len(s.winWords)); len(s.winWords) == 0 {
		s.grpWinOff, s.grpWinBase = nil, nil
	}
	for e := m0; e < m; e++ {
		s.evOff[e] = uint32(len(s.evWords))
		s.evWords, s.evBase[e] = appendWindow(s.evWords, s.h.EdgeVertices(uint32(e)))
	}
	s.evOff[m] = uint32(len(s.evWords))
}

// appendWindow appends the bitmap window of a sorted set to arena when its
// density earns one, returning the arena and the window's base word.
func appendWindow(arena []uint64, set []uint32) ([]uint64, uint32) {
	base, nw, lo, hi, ok := intset.PlanWords(set)
	if !ok {
		return arena, 0
	}
	start := len(arena)
	arena = append(arena, make([]uint64, nw)...)
	intset.FillWords(arena[start:], base, set[lo:hi])
	return arena, base
}

// groupSlice returns the adjacency slice of group k of edge e.
func (s *Store) groupSlice(e, k uint32) []uint32 {
	start := s.grpStart[k]
	end := s.adjOff[e+1]
	if k+1 < s.grpOff[e+1] {
		end = s.grpStart[k+1]
	}
	return s.adj[start:end]
}

// groupWindow returns the arena range of group k's bitmap window; empty when
// the group is array-only.
func (s *Store) groupWindow(k uint32) (lo, hi uint32) {
	if s.grpWinOff == nil {
		return 0, 0
	}
	return s.grpWinOff[k], s.grpWinOff[k+1]
}

// groupSet wraps group k of edge e as an adaptive container carrying its
// prebuilt bitmap window, if it has one. The Set aliases arena storage.
//
//ohmlint:hotpath
func (s *Store) groupSet(e, k uint32) intset.Set {
	grp := s.groupSlice(e, k)
	lo, hi := s.groupWindow(k)
	if lo == hi {
		return intset.ArrayView(grp)
	}
	return intset.View(grp, s.winWords[lo:hi], s.grpWinBase[k])
}

// buildDegreeIndex derives the global degree→edges CSR from the hypergraph
// by counting sort. Also invoked after Load: the index is cheap to rebuild,
// so it is not part of the serialized format.
func (s *Store) buildDegreeIndex() {
	m := s.h.NumEdges()
	maxDeg := 0
	for e := 0; e < m; e++ {
		maxDeg = max(maxDeg, s.h.Degree(uint32(e)))
	}
	first := make([]uint32, maxDeg+2) // first[d+1] counts degree d, then first[d] is where it starts
	for e := 0; e < m; e++ {
		first[s.h.Degree(uint32(e))+1]++
	}
	s.degList, s.degOff = nil, []uint32{0}
	for d := 0; d <= maxDeg; d++ {
		if n := first[d+1]; n > 0 {
			s.degList = append(s.degList, uint32(d))
			s.degOff = append(s.degOff, first[d]+n)
		}
		first[d+1] += first[d]
	}
	s.degEdges = make([]uint32, m)
	for e := 0; e < m; e++ {
		d := s.h.Degree(uint32(e))
		s.degEdges[first[d]] = uint32(e)
		first[d]++
	}
}

// degreeGroup returns the global degree index's group for degree d, or -1
// when no hyperedge has that degree.
func (s *Store) degreeGroup(d int) int {
	if k, ok := slices.BinarySearch(s.degList, uint32(d)); ok && d >= 0 {
		return k
	}
	return -1
}

// Hypergraph returns the hypergraph the store indexes.
func (s *Store) Hypergraph() *hypergraph.Hypergraph { return s.h }

// Adj returns the full adjacency list A(e), sorted by (degree, overlap size,
// id). The slice aliases internal storage.
//
//ohmlint:hotpath
func (s *Store) Adj(e uint32) []uint32 {
	return s.adj[s.adjOff[e]:s.adjOff[e+1]]
}

// NumNeighbors returns |A(e)|.
//
//ohmlint:hotpath
func (s *Store) NumNeighbors(e uint32) int {
	return int(s.adjOff[e+1] - s.adjOff[e])
}

// adjGroup binary-searches the (small) per-edge group table for e's first
// group keyed (d, ov) or above; it returns grpOff[e+1] when there is none.
//
//ohmlint:hotpath
func (s *Store) adjGroup(e uint32, d, ov int) uint32 {
	lo, hi := s.grpOff[e], s.grpOff[e+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if gd := s.grpDeg[mid]; gd < uint32(d) || gd == uint32(d) && s.grpOvl[mid] < uint32(ov) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// AdjSet returns the neighbours of e that have degree exactly d and share
// exactly ov vertices with it — {o ≠ e : deg(o) = d ∧ |V(e)∩V(o)| = ov} —
// sorted by ID, as an adaptive container carrying the group's prebuilt bitmap
// window (if its density earned one at Build time). The Set aliases internal
// storage, nothing is converted or allocated; it is empty when e has no such
// neighbour.
//
//ohmlint:hotpath
func (s *Store) AdjSet(e uint32, d, ov int) intset.Set {
	k := s.adjGroup(e, d, ov)
	if d < 0 || ov < 0 || k == s.grpOff[e+1] || s.grpDeg[k] != uint32(d) || s.grpOvl[k] != uint32(ov) {
		return intset.Set{}
	}
	return s.groupSet(e, k)
}

// AdjSets appends to dst every group of e's neighbours of degree d, one
// container per overlap size in ascending order, and returns it: pairwise
// disjoint ID-sorted sets whose union is {o : deg(o) = d ∧ Connected(e, o)} —
// what a position that must not overlap e has to lose. Like AdjSet's, the
// Sets alias internal storage.
//
//ohmlint:hotpath
func (s *Store) AdjSets(e uint32, d int, dst []intset.Set) []intset.Set {
	if d < 0 {
		return dst
	}
	for k := s.adjGroup(e, d, 0); k < s.grpOff[e+1] && s.grpDeg[k] == uint32(d); k++ {
		dst = append(dst, s.groupSet(e, k))
	}
	return dst
}

// EdgeVertexSet returns hyperedge e's vertex set as an adaptive container:
// the hypergraph's sorted vertex slice plus the arena bitmap window when the
// set is dense enough. The Set aliases shared storage.
//
//ohmlint:hotpath
func (s *Store) EdgeVertexSet(e uint32) intset.Set {
	verts := s.h.EdgeVertices(e)
	if s.evOff[e] == s.evOff[e+1] {
		return intset.ArrayView(verts)
	}
	return intset.View(verts, s.evWords[s.evOff[e]:s.evOff[e+1]], s.evBase[e])
}

// Connected reports whether hyperedges a and b overlap, by probing the
// sub-groups of b's degree in a's adjacency list — an O(1) window test where
// a sub-group is bitmap-backed, binary search otherwise. Connected(e, e) is
// false: an edge is not its own neighbor.
//
//ohmlint:hotpath
func (s *Store) Connected(a, b uint32) bool {
	if a == b {
		return false
	}
	// Probe the shorter adjacency list.
	if s.NumNeighbors(b) < s.NumNeighbors(a) {
		a, b = b, a
	}
	d := s.h.Degree(b)
	for k := s.adjGroup(a, d, 0); k < s.grpOff[a+1] && s.grpDeg[k] == uint32(d); k++ {
		if s.groupSet(a, k).Contains(b) {
			return true
		}
	}
	return false
}

// Degrees returns the sorted distinct hyperedge degrees present in the
// hypergraph, useful for workload construction. The slice is freshly
// allocated and may be modified.
func (s *Store) Degrees() []int {
	out := make([]int, len(s.degList))
	for i, d := range s.degList {
		out[i] = int(d)
	}
	return out
}

// EdgesWithDegree returns all hyperedge IDs of degree d, ascending — a CSR
// group lookup on the precomputed degree index, not a scan. The slice
// aliases internal storage and must be treated as read-only.
func (s *Store) EdgesWithDegree(d int) []uint32 {
	k := s.degreeGroup(d)
	if k < 0 {
		return nil
	}
	return s.degEdges[s.degOff[k]:s.degOff[k+1]]
}

// NumEdgesWithDegree returns the number of hyperedges of degree d without
// materializing the list.
func (s *Store) NumEdgesWithDegree(d int) int {
	k := s.degreeGroup(d)
	if k < 0 {
		return 0
	}
	return int(s.degOff[k+1] - s.degOff[k])
}

// BuildTime returns the wall-clock construction duration (DAL-T, Table 6).
func (s *Store) BuildTime() time.Duration { return s.buildTime }

// ContainerStats summarizes the group index and the adaptive-container
// arenas: how many adjacency groups there are per index level, how many of
// them and of the hyperedge vertex sets carry bitmap windows, and what the
// tables cost. Surfaced by ohmstat next to the Table 6 numbers.
type ContainerStats struct {
	// DegreeGroups counts the (hyperedge, neighbour degree) runs — the
	// paper's DAL groups; AdjGroups the (degree, overlap size) groups they
	// split into, AdjWindowed of which are bitmap-backed.
	DegreeGroups int
	AdjGroups    int
	AdjWindowed  int
	// GroupBytes is the size of the group table, window metadata included.
	GroupBytes int64
	// EdgeSets is the hyperedge count; EdgeWindowed of their vertex sets are
	// bitmap-backed.
	EdgeSets     int
	EdgeWindowed int
	// WindowBytes is the total arena size of all window words.
	WindowBytes int64
}

// Containers reports the group-index and adaptive-container statistics of
// the store.
func (s *Store) Containers() ContainerStats {
	st := ContainerStats{
		AdjGroups:  len(s.grpDeg),
		GroupBytes: 4 * int64(len(s.grpOff)+len(s.grpDeg)+len(s.grpOvl)+len(s.grpStart)+len(s.grpWinOff)+len(s.grpWinBase)),
		EdgeSets:   s.h.NumEdges(),
	}
	for e := 0; e < st.EdgeSets; e++ {
		for k := s.grpOff[e]; k < s.grpOff[e+1]; k++ {
			if k == s.grpOff[e] || s.grpDeg[k] != s.grpDeg[k-1] {
				st.DegreeGroups++
			}
			if lo, hi := s.groupWindow(k); lo != hi {
				st.AdjWindowed++
			}
		}
		if s.evOff[e] != s.evOff[e+1] {
			st.EdgeWindowed++
		}
	}
	st.WindowBytes = int64(len(s.winWords)+len(s.evWords)) * 8
	return st
}

// MemoryBytes estimates the resident size of the DAL arrays (DAL-M,
// Table 6), including the global degree index and the container arenas.
func (s *Store) MemoryBytes() int64 {
	n := len(s.adjOff) + len(s.adj) + len(s.grpOff) + len(s.grpDeg) + len(s.grpOvl) + len(s.grpStart) +
		len(s.degList) + len(s.degOff) + len(s.degEdges) +
		len(s.grpWinOff) + len(s.grpWinBase) + len(s.evOff) + len(s.evBase)
	return int64(n)*4 + int64(len(s.winWords)+len(s.evWords))*8
}
