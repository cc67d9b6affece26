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
// and MemoryBytes feed the Table 6 overhead accounting. Each hyperedge's
// segment and groups are located by their own bounds, not by prefix
// offsets, so a streaming store grows by rewriting the segments a batch
// touches at the end of its arenas, which it shares with the store it grew
// from (BuildDelta, delta.go); Save writes the same compressed sparse rows
// either way.
package dal

import (
	"slices"
	"sync/atomic"
	"time"

	"ohminer/internal/hypergraph"
	"ohminer/internal/intset"
)

// span locates one hyperedge's part of the store by its own bounds: its
// adjacency segment adj[adjLo:adjHi] and its groups k ∈ [grpLo, grpHi).
type span struct {
	adjLo, adjHi uint32
	grpLo, grpHi uint32
}

// Store is the immutable degree- and overlap-aware adjacency structure over
// one hypergraph.
type Store struct {
	h *hypergraph.Hypergraph

	// Hyperedge e's segment and groups are located by spans[e], one 16-byte
	// row, so AdjSet reads both bounds from one cache line. Build and Load
	// write the segments back to back in ID order, exactly as long as they
	// are; BuildDelta rewrites a segment that gains neighbours at the end of
	// the arenas, and the entries it leaves behind are garbage. adjLive and
	// grpLive count the live entries of adj and of the group table.
	spans            []span
	adj              []uint32 // segments, each sorted by (degree, |e∩o|, id)
	adjLive, grpLive int

	// Group table: group k is keyed (grpDeg[k], grpOvl[k]) — a hyperedge's
	// groups in strictly ascending key order — and spans adj[grpStart[k]:end],
	// where end is the next group's start, or the segment's end for the
	// hyperedge's last group.
	grpDeg   []uint32
	grpOvl   []uint32
	grpStart []uint32

	// Global degree index: degList holds the sorted distinct hyperedge
	// degrees; the edges of degree degList[k] are degEdges[k], ascending.
	// Built once so EdgesWithDegree (the first mining step of every run) and
	// the matching-order cost model answer from a lookup instead of an O(E)
	// scan; BuildDelta appends the new IDs to their degrees' lists.
	degList  []uint32
	degEdges [][]uint32

	// Adaptive-container arenas: bitmap windows (intset.PlanWords density
	// rule) packed back to back for the adjacency groups and for the
	// hyperedge vertex sets. Group k's window words are
	// winWords[grpWinOff[k]:grpWinOff[k+1]] at base grpWinBase[k] (equal
	// offsets mean the group is array-only; both tables stay nil until a
	// group earns a window, so on every sparse preset they are nil); edge
	// e's vertex-set window is evWords[evOff[e]:evOff[e+1]] at base
	// evBase[e]. The windows are planned as the groups are written, in the
	// group table's order, so the engine's hot paths assemble intset.Set
	// views without ever converting or allocating; like the degree index,
	// the arenas are derived state rebuilt after Load rather than
	// serialized.
	winWords   []uint64
	grpWinOff  []uint32
	grpWinBase []uint32
	evWords    []uint64
	evOff      []uint32
	evBase     []uint32

	// extended is claimed by the first BuildDelta from this store, which
	// appends into the spare capacity of its arenas, where this store's
	// readers never index; any later BuildDelta from it copies them first.
	extended atomic.Bool

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
	s.buildContainers()
	s.buildTime = time.Since(start)
	return s
}

// buildAdjacency fills the adjacency and group tables, one hyperedge at a
// time: gather e's neighbours with their overlap sizes (gatherNeighbours),
// order them by one sort on their packed keys (sortKeys) and append the
// segment with its groups (appendSegment). The degree index must be built.
// Each table goes into chunks of 4 MiB, joined into an exact-length table at
// the end: no bound on the total is needed (Σ_v deg(v)·(deg(v)−1), the one a
// vertex walk gives, is 6× the adjacency of the dense block hypergraph) and
// no slack outlives the build.
func (s *Store) buildAdjacency() {
	h := s.h
	m := h.NumEdges()
	base := keyBase(s.degList)
	// The first chunk is no larger than the walk can fill: neighbours share
	// a vertex, so Σ_v deg(v)·(deg(v)−1) bounds the adjacency entries, and
	// the groups are fewer.
	const chunk = 1 << 20
	first := 0
	for v := 0; v < h.NumVertices() && first < chunk; v++ {
		d := min(h.VertexDegree(uint32(v)), chunk)
		first += d * (d - 1)
	}
	tables := [4]*[]uint32{&s.adj, &s.grpDeg, &s.grpOvl, &s.grpStart}
	var full [4][][]uint32
	for _, t := range tables {
		*t = make([]uint32, 0, min(first, chunk))
	}
	s.spans = make([]span, m)
	hits := make([]uint32, m)
	var touched []uint32
	var keys, tmp []uint64
	var at span // the previous segment's: the next one starts at its ends
	for e := uint32(0); e < uint32(m); e++ {
		touched = gatherNeighbours(h, e, hits, touched[:0])
		keys = keys[:0]
		for _, o := range touched {
			if o != e {
				keys = append(keys, packKey(base, uint32(h.Degree(o)), o, hits[o]))
			}
			hits[o] = 0
		}
		if len(tmp) < len(keys) {
			tmp = make([]uint64, max(len(keys), 2*len(tmp)))
		}
		// A segment has at most as many groups as entries.
		if len(s.adj)+len(keys) > cap(s.adj) || len(s.grpDeg)+len(keys) > cap(s.grpDeg) {
			for i, t := range tables {
				if len(*t)+len(keys) > cap(*t) {
					full[i] = append(full[i], *t)
					*t = make([]uint32, 0, max(chunk, len(keys)))
				}
			}
		}
		s.appendSegment(e, base, sortKeys(keys, tmp), nil, span{}, at.adjHi, at.grpHi)
		at = s.spans[e]
	}
	for i, t := range tables {
		if len(full[i]) > 0 || len(*t) < cap(*t) {
			*t = slices.Concat(append(full[i], *t)...)
		}
	}
	s.adjLive, s.grpLive = len(s.adj), len(s.grpDeg)
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

// keyBase returns, for each degree d in degList (the table is indexed by
// degree; other entries are unused), the sum of the listed degrees below d.
// rank(d, ov) = base[d] + ov − 1 then orders (degree, overlap) pairs
// lexicographically for every overlap 1 ≤ ov ≤ d, and stays below the total
// incidence, a uint32: the key of an adjacency entry packs rank and
// neighbour ID into one uint64 whatever the degrees, overlap sizes and IDs
// are.
func keyBase(degList []uint32) []uint32 {
	if len(degList) == 0 {
		return nil
	}
	base := make([]uint32, degList[len(degList)-1]+1)
	sum := uint32(0)
	for _, d := range degList {
		base[d] = sum
		sum += d
	}
	return base
}

// packKey is the sort key of neighbour o, of degree d, overlapping in ov
// vertices: (degree, overlap) rank above, ID below.
func packKey(base []uint32, d, o, ov uint32) uint64 {
	return uint64(base[d]+ov-1)<<32 | uint64(o)
}

// appendSegment appends hyperedge e's adjacency segment with its groups and
// points spans[e] at them: the segment starts at adjacency position at and
// its groups at group position k0, where the tables end. The segment is
// old, a segment of prev (the zero span when there is none), merged with
// keys, packed keys in ascending order whose IDs are above all of old's: a
// key of an old group's (degree, overlap) joins that group at its end.
func (s *Store) appendSegment(e uint32, base []uint32, keys []uint64, prev *Store, old span, at, k0 uint32) {
	sp := span{adjLo: at, adjHi: at, grpLo: k0, grpHi: k0}
	for i, k := 0, old.grpLo; i < len(keys) || k < old.grpHi; sp.grpHi++ {
		var d, ov uint32
		var grp []uint32
		if k < old.grpHi && (i == len(keys) || uint64(base[prev.grpDeg[k]]+prev.grpOvl[k]-1) <= keys[i]>>32) {
			d, ov, grp = prev.grpDeg[k], prev.grpOvl[k], prev.groupSlice(old, k)
			k++
		} else {
			d = uint32(s.h.Degree(uint32(keys[i])))
			ov = uint32(keys[i]>>32) - base[d] + 1
		}
		s.grpDeg = append(s.grpDeg, d)
		s.grpOvl = append(s.grpOvl, ov)
		s.grpStart = append(s.grpStart, sp.adjHi)
		if len(grp) > 0 {
			s.adj = append(s.adj, grp...)
		}
		j := i
		for rank := uint64(base[d] + ov - 1); j < len(keys) && keys[j]>>32 == rank; j++ {
			s.adj = append(s.adj, uint32(keys[j]))
		}
		sp.adjHi += uint32(len(grp) + j - i)
		i = j
	}
	s.spans[e] = sp
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

// buildContainers plans the bitmap windows of every group and of every
// hyperedge vertex set, in ID order: the last step of Build and of Load.
func (s *Store) buildContainers() {
	m := s.h.NumEdges()
	s.evOff = append(make([]uint32, 0, m+1), 0)
	s.evBase = make([]uint32, 0, m)
	for e := uint32(0); e < uint32(m); e++ {
		s.appendGroupWindows(e)
		s.appendVertexWindow(e)
	}
}

// appendGroupWindows plans the windows of e's groups, which must be the
// groups after the last one planned: a group whose density earns a window
// gets its words at the end of winWords, any other an empty range. The
// window tables are allocated when the first group earns one, empty ranges
// for every group before it.
func (s *Store) appendGroupWindows(e uint32) {
	sp := s.spans[e]
	for k := sp.grpLo; k < sp.grpHi; k++ {
		grp := s.groupSlice(sp, k)
		base, nw, lo, hi, ok := intset.PlanWords(grp)
		if ok && s.grpWinOff == nil {
			s.grpWinOff = make([]uint32, k+1, len(s.grpDeg)+1)
			s.grpWinBase = make([]uint32, k, len(s.grpDeg))
		}
		if s.grpWinOff == nil {
			continue
		}
		if !ok {
			base = 0
		} else {
			at := len(s.winWords)
			s.winWords = append(s.winWords, make([]uint64, nw)...)
			intset.FillWords(s.winWords[at:], base, grp[lo:hi])
		}
		s.grpWinOff = append(s.grpWinOff, uint32(len(s.winWords)))
		s.grpWinBase = append(s.grpWinBase, base)
	}
}

// appendVertexWindow plans the window of hyperedge e's vertex set, the next
// after the last one planned.
func (s *Store) appendVertexWindow(e uint32) {
	verts := s.h.EdgeVertices(e)
	var b uint32
	if base, nw, lo, hi, ok := intset.PlanWords(verts); ok {
		at := len(s.evWords)
		s.evWords = append(s.evWords, make([]uint64, nw)...)
		intset.FillWords(s.evWords[at:], base, verts[lo:hi])
		b = base
	}
	s.evOff = append(s.evOff, uint32(len(s.evWords)))
	s.evBase = append(s.evBase, b)
}

// groupSlice returns the adjacency slice of group k of the hyperedge whose
// span is sp.
//
//ohmlint:hotpath
func (s *Store) groupSlice(sp span, k uint32) []uint32 {
	end := sp.adjHi
	if k+1 < sp.grpHi {
		end = s.grpStart[k+1]
	}
	return s.adj[s.grpStart[k]:end]
}

// groupWindow returns the arena range of group k's bitmap window; empty when
// the group is array-only.
func (s *Store) groupWindow(k uint32) (lo, hi uint32) {
	if s.grpWinOff == nil {
		return 0, 0
	}
	return s.grpWinOff[k], s.grpWinOff[k+1]
}

// groupSet wraps group k of the hyperedge whose span is sp as an adaptive
// container carrying its prebuilt bitmap window, if it has one. The Set
// aliases arena storage.
//
//ohmlint:hotpath
func (s *Store) groupSet(sp span, k uint32) intset.Set {
	grp := s.groupSlice(sp, k)
	lo, hi := s.groupWindow(k)
	if lo == hi {
		return intset.ArrayView(grp)
	}
	return intset.View(grp, s.winWords[lo:hi], s.grpWinBase[k])
}

// buildDegreeIndex derives the global degree index from the hypergraph by
// counting sort, into one table that the per-degree lists share (each one
// clipped to its length, so that BuildDelta's appends move it). Also invoked
// after Load: the index is cheap to rebuild, so it is not part of the
// serialized format.
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
	flat := make([]uint32, m)
	s.degList, s.degEdges = nil, nil
	for d := 0; d <= maxDeg; d++ {
		if n := first[d+1]; n > 0 {
			s.degList = append(s.degList, uint32(d))
			s.degEdges = append(s.degEdges, flat[first[d]:first[d]+n:first[d]+n])
		}
		first[d+1] += first[d]
	}
	for e := 0; e < m; e++ {
		d := s.h.Degree(uint32(e))
		flat[first[d]] = uint32(e)
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
	sp := s.spans[e]
	return s.adj[sp.adjLo:sp.adjHi]
}

// NumNeighbors returns |A(e)|.
//
//ohmlint:hotpath
func (s *Store) NumNeighbors(e uint32) int {
	sp := s.spans[e]
	return int(sp.adjHi - sp.adjLo)
}

// adjGroup binary-searches the (small) group run of the hyperedge whose span
// is sp for its first group keyed (d, ov) or above; it returns sp.grpHi when
// there is none.
//
//ohmlint:hotpath
func (s *Store) adjGroup(sp span, d, ov int) uint32 {
	lo, hi := sp.grpLo, sp.grpHi
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
	sp := s.spans[e]
	k := s.adjGroup(sp, d, ov)
	if d < 0 || ov < 0 || k == sp.grpHi || s.grpDeg[k] != uint32(d) || s.grpOvl[k] != uint32(ov) {
		return intset.Set{}
	}
	return s.groupSet(sp, k)
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
	sp := s.spans[e]
	for k := s.adjGroup(sp, d, 0); k < sp.grpHi && s.grpDeg[k] == uint32(d); k++ {
		dst = append(dst, s.groupSet(sp, k))
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
	sp := s.spans[a]
	for k := s.adjGroup(sp, d, 0); k < sp.grpHi && s.grpDeg[k] == uint32(d); k++ {
		if s.groupSet(sp, k).Contains(b) {
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
	return slices.Clip(s.degEdges[k])
}

// NumEdgesWithDegree returns the number of hyperedges of degree d without
// materializing the list.
func (s *Store) NumEdgesWithDegree(d int) int {
	k := s.degreeGroup(d)
	if k < 0 {
		return 0
	}
	return len(s.degEdges[k])
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
	// GroupBytes is the size of the group index, window metadata included.
	GroupBytes int64
	// EdgeSets is the hyperedge count; EdgeWindowed of their vertex sets are
	// bitmap-backed.
	EdgeSets     int
	EdgeWindowed int
	// WindowBytes is the total size of all window words.
	WindowBytes int64
}

// Containers reports the group-index and adaptive-container statistics of
// the store: of what its hyperedges read, so a store grown by BuildDelta
// reports what Build reports on the same hypergraph.
func (s *Store) Containers() ContainerStats {
	st := ContainerStats{AdjGroups: s.grpLive, EdgeSets: s.h.NumEdges()}
	words := len(s.evWords)
	for e, sp := range s.spans {
		for k := sp.grpLo; k < sp.grpHi; k++ {
			if k == sp.grpLo || s.grpDeg[k] != s.grpDeg[k-1] {
				st.DegreeGroups++
			}
			if lo, hi := s.groupWindow(k); lo != hi {
				st.AdjWindowed++
				words += int(hi - lo)
			}
		}
		if s.evOff[e] != s.evOff[e+1] {
			st.EdgeWindowed++
		}
	}
	// Group bounds (8 bytes a hyperedge), keys and starts (12 bytes a
	// group) and, once a group has a window, the window tables (8 more).
	st.GroupBytes = 8*int64(st.EdgeSets) + 12*int64(st.AdjGroups)
	if st.AdjWindowed > 0 {
		st.GroupBytes += 8*int64(st.AdjGroups) + 4
	}
	st.WindowBytes = int64(words) * 8
	return st
}

// MemoryBytes estimates the resident size of the DAL arrays (DAL-M,
// Table 6), including the global degree index, the container arenas and a
// grown store's garbage.
func (s *Store) MemoryBytes() int64 {
	n := 4*len(s.spans) + len(s.adj) + len(s.grpDeg) + len(s.grpOvl) + len(s.grpStart) +
		len(s.degList) + s.h.NumEdges() +
		len(s.grpWinOff) + len(s.grpWinBase) + len(s.evOff) + len(s.evBase)
	return int64(n)*4 + int64(len(s.winWords)+len(s.evWords))*8
}
