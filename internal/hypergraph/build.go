package hypergraph

import (
	"encoding/binary"
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

	// Normalize each edge: sort and dedup vertices. An edge that arrives
	// strictly ascending already is normal and is used as it is (nothing
	// below writes to it); any other is copied first.
	norm := make([][]uint32, 0, len(edges))
	var normLabels []uint32
	if edgeLabels != nil {
		normLabels = make([]uint32, 0, len(edges))
	}
	for i, raw := range edges {
		if len(raw) == 0 {
			continue
		}
		e := raw
		if !strictlyAscending(e) {
			e = slices.Clone(raw)
			slices.Sort(e)
			e = slices.Compact(e)
		}
		if int(e[len(e)-1]) >= numVertices {
			return nil, fmt.Errorf("hypergraph: vertex %d out of range [0,%d)", e[len(e)-1], numVertices)
		}
		norm = append(norm, e)
		if edgeLabels != nil {
			normLabels = append(normLabels, edgeLabels[i])
		}
	}
	if len(norm) == 0 {
		return nil, ErrEmpty
	}

	// Remove duplicate hyperedges via content hashing with full comparison
	// on collisions; an edge label is part of the identity.
	seed := maphash.MakeSeed()
	byHash := make(map[uint64][]int, len(norm))
	uniq := norm[:0]
	uniqLabels := normLabels[:0]
	labelOf := func(idx int) uint32 {
		if normLabels == nil {
			return 0
		}
		return normLabels[idx]
	}
	uniqLabelOf := func(idx int) uint32 {
		if normLabels == nil {
			return 0
		}
		return uniqLabels[idx]
	}
	var enc []byte
	for i, e := range norm {
		enc = enc[:0]
		for _, v := range e {
			enc = binary.LittleEndian.AppendUint32(enc, v)
		}
		hv := maphash.Bytes(seed, enc)
		dup := false
		for _, k := range byHash[hv] {
			if slices.Equal(uniq[k], e) && uniqLabelOf(k) == labelOf(i) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		byHash[hv] = append(byHash[hv], len(uniq))
		uniq = append(uniq, e)
		if normLabels != nil {
			uniqLabels = append(uniqLabels, normLabels[i])
		}
	}

	h := &Hypergraph{}
	if normLabels != nil {
		h.edgeLabels = append([]uint32(nil), uniqLabels...)
	}
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

	// Edge CSR.
	total := 0
	for _, e := range uniq {
		total += len(e)
	}
	h.edgeOff = make([]uint32, len(uniq)+1)
	h.edgeVerts = make([]uint32, 0, total)
	for i, e := range uniq {
		h.edgeVerts = append(h.edgeVerts, e...)
		h.edgeOff[i+1] = uint32(len(h.edgeVerts))
	}

	// Vertex CSR (counting sort; edges visited in increasing ID order, so
	// each vertex's incident list comes out sorted).
	counts := make([]uint32, numVertices+1)
	for _, v := range h.edgeVerts {
		counts[v+1]++
	}
	for v := 1; v <= numVertices; v++ {
		counts[v] += counts[v-1]
	}
	h.vertOff = counts
	h.vertEdges = make([]uint32, total)
	cursor := make([]uint32, numVertices)
	copy(cursor, h.vertOff[:numVertices])
	for e := range uniq {
		for _, v := range uniq[e] {
			h.vertEdges[cursor[v]] = uint32(e)
			cursor[v]++
		}
	}
	return h, nil
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
