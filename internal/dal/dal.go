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
// paper): one walk over each hyperedge's neighbourhood, one radix sort of its
// packed (degree, overlap, ID) keys and one sequential write of its segment
// and groups (buildAdjacency, DESIGN.md "DAL layout and build"); BuildTime
// and MemoryBytes feed the Table 6 overhead accounting.
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
	s.buildDegreeIndex()
	s.buildAdjacency()
	s.buildContainers(nil, nil)
	s.buildTime = time.Since(start)
	return s
}

// buildAdjacency fills the adjacency CSR and its group table, one hyperedge
// at a time: gather e's neighbours with their overlap sizes
// (gatherNeighbours), order them by one sort on their packed keys
// (sortKeys) and append the segment with its groups (appendSegment). The
// degree index must be built. Segments go into chunks of 4 MiB, joined into
// the exact-length adj at the end: no bound on the total is needed (Σ_v
// deg(v)·(deg(v)−1), the one a vertex walk gives, is 6× the adjacency of the
// dense block hypergraph) and no slack outlives the build.
func (s *Store) buildAdjacency() {
	h := s.h
	m := h.NumEdges()
	base := s.keyBase()
	// The first chunk is no larger than the walk can fill: neighbours share
	// a vertex, so Σ_v deg(v)·(deg(v)−1) bounds the adjacency entries.
	const chunk = 1 << 20
	first := 0
	for v := 0; v < h.NumVertices() && first < chunk; v++ {
		d := min(h.VertexDegree(uint32(v)), chunk)
		first += d * (d - 1)
	}
	s.adj = make([]uint32, 0, min(first, chunk))
	var full [][]uint32
	s.adjOff = append(make([]uint32, 0, m+1), 0)
	s.grpOff = append(make([]uint32, 0, m+1), 0)
	hits := make([]uint32, m)
	var touched []uint32
	var keys, tmp []uint64
	for e := uint32(0); e < uint32(m); e++ {
		touched = gatherNeighbours(h, e, hits, touched[:0])
		keys = keys[:0]
		for _, o := range touched {
			if o != e {
				keys = append(keys, packKey(base, o, hits[o]))
			}
			hits[o] = 0
		}
		if len(tmp) < len(keys) {
			tmp = make([]uint64, max(len(keys), 2*len(tmp)))
		}
		if len(s.adj)+len(keys) > cap(s.adj) {
			full = append(full, s.adj)
			s.adj = make([]uint32, 0, max(chunk, len(keys)))
		}
		s.appendSegment(base, sortKeys(keys, tmp))
	}
	s.adj = slices.Concat(append(full, s.adj)...)
	s.grpDeg, s.grpOvl, s.grpStart = slices.Clone(s.grpDeg), slices.Clone(s.grpOvl), slices.Clone(s.grpStart)
}

// gatherNeighbours appends to dst every hyperedge that shares a vertex with
// e, e itself included, each once and in the order the walk over e's
// vertices first meets it, and counts in hits[o] how often the walk met o:
// |e∩o|. hits must be zero for all of them on entry; the caller zeroes it
// again through dst.
func gatherNeighbours(h *hypergraph.Hypergraph, e uint32, hits, dst []uint32) []uint32 {
	for _, v := range h.EdgeVertices(e) {
		for _, o := range h.VertexEdges(v) {
			if hits[o] == 0 {
				dst = append(dst, o)
			}
			hits[o]++
		}
	}
	return dst
}

// keyBase returns, per hyperedge o, the sum of the distinct hyperedge degrees
// below deg(o). rank(o, ov) = keyBase[o] + ov − 1 then orders (deg(o), ov)
// pairs lexicographically for every overlap 1 ≤ ov ≤ deg(o), and stays
// below the total incidence, a uint32: the key of an adjacency entry packs
// rank and neighbour ID into one uint64 whatever the degrees, overlap sizes
// and IDs are. The degree index must be built.
func (s *Store) keyBase() []uint32 {
	base := make([]uint32, s.h.NumEdges())
	sum := uint32(0)
	for k, d := range s.degList {
		for _, o := range s.degEdges[s.degOff[k]:s.degOff[k+1]] {
			base[o] = sum
		}
		sum += d
	}
	return base
}

// packKey is the sort key of neighbour o overlapping in ov vertices: (degree,
// overlap) rank above, ID below.
func packKey(base []uint32, o, ov uint32) uint64 {
	return uint64(base[o]+ov-1)<<32 | uint64(o)
}

// appendSegment appends the next hyperedge's adjacency segment, given as its
// packed keys in ascending order, and the segment's group-table entries.
func (s *Store) appendSegment(base []uint32, keys []uint64) {
	at := s.adjOff[len(s.adjOff)-1]
	for i, k := range keys {
		o := uint32(k)
		if i == 0 || k>>32 != keys[i-1]>>32 {
			s.grpDeg = append(s.grpDeg, uint32(s.h.Degree(o)))
			s.grpOvl = append(s.grpOvl, uint32(k>>32)-base[o]+1)
			s.grpStart = append(s.grpStart, at+uint32(i))
		}
		s.adj = append(s.adj, o)
	}
	s.adjOff = append(s.adjOff, at+uint32(len(keys)))
	s.grpOff = append(s.grpOff, uint32(len(s.grpDeg)))
}

// insertionMax is the segment length up to which sortKeys sorts by
// insertion: on the dense block hypergraph (141 k segments of ≤ 12
// neighbours) a radix pass's bucket set-up costs more than the moves.
const insertionMax = 48

// sortKeys sorts one segment's keys and returns them: in place by insertion
// up to insertionMax, else by byte-wise LSD radix over the key bytes that
// differ anywhere in the segment — 256 buckets a pass, whatever the keys
// hold — with tmp (at least as long) as the other buffer; the result is
// keys or tmp.
func sortKeys(keys, tmp []uint64) []uint64 {
	n := len(keys)
	if n <= insertionMax {
		for i := 1; i < n; i++ {
			k := keys[i]
			j := i
			for ; j > 0 && keys[j-1] > k; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
		return keys
	}
	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	src, dst := keys, tmp[:n]
	for shift := 0; shift < 64; shift += 8 {
		if diff>>shift&0xff == 0 {
			continue
		}
		var pos [256]int
		for _, k := range src {
			pos[k>>shift&0xff]++
		}
		sum := 0
		for b, n := range pos {
			pos[b], sum = sum, sum+n
		}
		for _, k := range src {
			b := k >> shift & 0xff
			dst[pos[b]] = k
			pos[b]++
		}
		src, dst = dst, src
	}
	return src
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
