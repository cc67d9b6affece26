package hypergraph

import (
	"errors"
	"fmt"
	"slices"
)

// ErrExtendLabeled is returned when Extend is asked to grow an
// edge-labeled hypergraph; the streaming subsystem that drives Extend is
// unlabeled-edge only.
var ErrExtendLabeled = errors.New("hypergraph: cannot extend an edge-labeled hypergraph")

// Extend returns a new hypergraph equal to h plus the given hyperedges
// appended, with IDs continuing from h.NumEdges() — the incremental growth
// step of the streaming subsystem. Unlike Build it does not re-normalize or
// re-hash the existing edges: the caller (internal/stream keeps a content
// index across batches) guarantees each new edge is sorted, duplicate-free,
// non-empty, within the vertex universe, and not a duplicate of any existing
// edge; violations of the locally checkable invariants are reported as
// errors, cross-edge uniqueness is the caller's contract. A nil h has no
// vertex universe to extend and is refused with ErrEmpty.
//
// The work follows the batch, not h. The new edges are appended to h's edge
// arenas, and every vertex they touch gets its list rewritten at the end of
// the vertex-list arena: its old entries, then the new IDs, which are above
// every old one. Only the vertex bounds table is copied. h itself is not
// modified and stays valid: the first Extend of h writes into the spare
// capacity beyond h's lengths, where h's readers never index, and a second
// one copies the arenas first. Extend only appends: the lists left behind
// stay garbage until the owner builds the hypergraph afresh (Moved reports
// them). Per-vertex labels (a property of the fixed vertex universe) are
// shared with the result.
func Extend(h *Hypergraph, edges [][]uint32) (*Hypergraph, error) {
	if h == nil {
		return nil, ErrEmpty
	}
	if h.EdgeLabeled() {
		return nil, ErrExtendLabeled
	}
	if len(edges) == 0 {
		return h, nil
	}
	numVertices, oldEdges := h.NumVertices(), h.NumEdges()
	// inc holds every new incidence as vertex<<32 | edge ID: sorted, it
	// lists the touched vertices in order, each with its new IDs ascending.
	var inc []uint64
	for i, e := range edges {
		if len(e) == 0 {
			return nil, errors.New("hypergraph: extend with empty hyperedge")
		}
		for j, v := range e {
			if j > 0 && e[j-1] >= v {
				return nil, fmt.Errorf("hypergraph: extend edge not sorted/deduped at vertex %d", v)
			}
			if int(v) >= numVertices {
				return nil, fmt.Errorf("hypergraph: vertex %d out of range [0,%d)", v, numVertices)
			}
			inc = append(inc, uint64(v)<<32|uint64(oldEdges+i))
		}
	}
	slices.Sort(inc)

	edgeOff, edgeVerts, vertEdges := h.edgeOff, h.edgeVerts, h.vertEdges
	if !h.extended.CompareAndSwap(false, true) {
		edgeOff, edgeVerts, vertEdges = slices.Clip(edgeOff), slices.Clip(edgeVerts), slices.Clip(vertEdges)
	}
	for _, e := range edges {
		edgeVerts = append(edgeVerts, e...)
		edgeOff = append(edgeOff, uint32(len(edgeVerts)))
	}
	out := &Hypergraph{
		edgeOff:   edgeOff,
		edgeVerts: edgeVerts,
		labels:    h.labels,
		numLabels: h.numLabels,
	}
	// Room for the lists this extension writes plus, when the arena has to
	// move, as many entries again as it holds live, so that it fills with
	// garbage before it has to move again.
	need := len(inc)
	for i, x := range inc {
		if i == 0 || x>>32 != inc[i-1]>>32 {
			need += h.VertexDegree(uint32(x >> 32))
		}
	}
	if cap(vertEdges)-len(vertEdges) < need {
		vertEdges = append(make([]uint32, 0, len(vertEdges)+need+max(need, len(h.edgeVerts))), vertEdges...)
	}
	// Rewrite each touched vertex's list at the arena's end.
	out.vertSpan = slices.Clone(h.vertSpan)
	for i := 0; i < len(inc); {
		v := uint32(inc[i] >> 32)
		lo := uint32(len(vertEdges))
		vertEdges = append(vertEdges, h.VertexEdges(v)...)
		for ; i < len(inc) && uint32(inc[i]>>32) == v; i++ {
			vertEdges = append(vertEdges, uint32(inc[i]))
		}
		out.vertSpan[v] = span{lo, uint32(len(vertEdges))}
	}
	out.vertEdges = vertEdges
	return out, nil
}

// Moved reports the vertex-list entries that Extend's rewritten lists left
// behind, and the live ones: one per incidence. A hypergraph laid out by
// Build has moved none.
func (h *Hypergraph) Moved() (moved, live int) {
	return len(h.vertEdges) - len(h.edgeVerts), len(h.edgeVerts)
}
