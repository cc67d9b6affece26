package hypergraph

import (
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
)

// ErrEmpty is returned when a build would produce a hypergraph with no
// hyperedges.
var ErrEmpty = errors.New("hypergraph: no hyperedges")

// Build constructs a hypergraph from raw hyperedge vertex lists.
//
// Preprocessing matches the paper (Sec. 5.1): duplicate vertices within a
// hyperedge are removed, hyperedges are sorted internally, duplicate
// hyperedges (identical vertex sets) are removed, and empty hyperedges are
// dropped. Vertex IDs must be dense in [0, numVertices); labels, when
// non-nil, must have length numVertices.
func Build(numVertices int, edges [][]uint32, labels []uint32) (*Hypergraph, error) {
	return BuildEdgeLabeled(numVertices, edges, labels, nil)
}

// BuildEdgeLabeled is Build for hyperedge-labeled hypergraphs (the
// extension of Sec. 4.3.1): edgeLabels assigns a label to every input
// hyperedge (before preprocessing). Two hyperedges with identical vertex
// sets but different labels are distinct; identical set + identical label
// is a duplicate and removed.
func BuildEdgeLabeled(numVertices int, edges [][]uint32, labels, edgeLabels []uint32) (*Hypergraph, error) {
	if labels != nil && len(labels) != numVertices {
		return nil, fmt.Errorf("hypergraph: %d labels for %d vertices", len(labels), numVertices)
	}
	if edgeLabels != nil && len(edgeLabels) != len(edges) {
		return nil, fmt.Errorf("hypergraph: %d edge labels for %d hyperedges", len(edgeLabels), len(edges))
	}

	// Edge CSR, one edge at a time: copy the edge into place, normalize it
	// there (sort and dedup its vertices) unless it arrived strictly
	// ascending, and keep it unless an earlier edge has the same vertex set
	// and edge label. Duplicates are found through an open-addressing table
	// of edge IDs under a per-build seeded hash, with full comparison on
	// collisions, so the first occurrence wins.
	total := 0
	for _, raw := range edges {
		total += len(raw)
	}
	h := &Hypergraph{
		edgeOff:   make([]uint32, 1, len(edges)+1),
		edgeVerts: make([]uint32, 0, total),
	}
	if edgeLabels != nil {
		h.edgeLabels = make([]uint32, 0, len(edges))
	}
	bits := 1
	for 1<<bits < 2*len(edges) {
		bits++
	}
	table := make([]uint32, 1<<bits)  // edge ID + 1; 0 is an empty slot
	seed := new(maphash.Hash).Sum64() // random per build
next:
	for i, raw := range edges {
		if len(raw) == 0 {
			continue
		}
		start := len(h.edgeVerts)
		h.edgeVerts = append(h.edgeVerts, raw...)
		e := h.edgeVerts[start:]
		if !strictlyAscending(e) {
			slices.Sort(e)
			e = slices.Compact(e)
			h.edgeVerts = h.edgeVerts[:start+len(e)]
		}
		if int(e[len(e)-1]) >= numVertices {
			return nil, fmt.Errorf("hypergraph: vertex %d out of range [0,%d)", e[len(e)-1], numVertices)
		}
		var label uint32
		if edgeLabels != nil {
			label = edgeLabels[i]
		}
		slot := hashEdge(seed, e, label) >> (64 - bits)
		for ; table[slot] != 0; slot = (slot + 1) & (1<<bits - 1) {
			k := table[slot] - 1
			if slices.Equal(h.EdgeVertices(k), e) && (edgeLabels == nil || h.edgeLabels[k] == label) {
				h.edgeVerts = h.edgeVerts[:start]
				continue next
			}
		}
		table[slot] = uint32(len(h.edgeOff))
		h.edgeOff = append(h.edgeOff, uint32(len(h.edgeVerts)))
		if edgeLabels != nil {
			h.edgeLabels = append(h.edgeLabels, label)
		}
	}
	if len(h.edgeOff) == 1 {
		return nil, ErrEmpty
	}
	// Dropped duplicates and repeated vertices leave spare capacity; the
	// hypergraph lives as long as its store, so it keeps exact-size tables.
	h.edgeOff, h.edgeVerts, h.edgeLabels = exact(h.edgeOff), exact(h.edgeVerts), exact(h.edgeLabels)

	if labels != nil {
		h.labels = append([]uint32(nil), labels...)
		maxL := uint32(0)
		for _, l := range h.labels {
			if l > maxL {
				maxL = l
			}
		}
		h.numLabels = int(maxL) + 1
	}

	h.indexVertices(numVertices)
	return h, nil
}

// indexVertices writes every vertex list from the edge CSR by counting
// sort, back to back and exactly as long as they are: vertSpan[v].hi counts
// v's incidences, then every span starts empty at its list's start and edges
// are placed in increasing ID order, so every list comes out ascending.
func (h *Hypergraph) indexVertices(numVertices int) {
	h.vertSpan = make([]span, numVertices)
	for _, v := range h.edgeVerts {
		h.vertSpan[v].hi++
	}
	sum := uint32(0)
	for v, sp := range h.vertSpan {
		h.vertSpan[v] = span{sum, sum}
		sum += sp.hi
	}
	h.vertEdges = make([]uint32, len(h.edgeVerts))
	for e := 0; e < h.NumEdges(); e++ {
		for _, v := range h.EdgeVertices(uint32(e)) {
			sp := &h.vertSpan[v]
			h.vertEdges[sp.hi] = uint32(e)
			sp.hi++
		}
	}
}

// MustBuild is Build that panics on error; intended for tests and examples
// with literal inputs.
func MustBuild(numVertices int, edges [][]uint32, labels []uint32) *Hypergraph {
	h, err := Build(numVertices, edges, labels)
	if err != nil {
		panic(err)
	}
	return h
}

func strictlyAscending(e []uint32) bool {
	for i := 1; i < len(e); i++ {
		if e[i] <= e[i-1] {
			return false
		}
	}
	return true
}

// hashEdge mixes a normalized edge and its label into 64 bits under seed;
// the high bits pick the slot.
func hashEdge(seed uint64, e []uint32, label uint32) uint64 {
	const m = 0x9e3779b97f4a7c15
	x := (seed ^ uint64(label)) * m
	for _, v := range e {
		x = (x ^ uint64(v)) * m
		x ^= x >> 32
	}
	return x * m
}

// exact returns s itself when it has no spare capacity, else a copy without.
func exact(s []uint32) []uint32 {
	if cap(s) == len(s) {
		return s
	}
	return slices.Clone(s)
}
