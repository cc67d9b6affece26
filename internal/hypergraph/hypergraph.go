// Package hypergraph defines the in-memory hypergraph representation shared
// by every component of the system.
//
// A hypergraph H = (V, E) stores both incidence directions: edge → sorted
// vertex list (the hyperedge contents, in CSR form) and vertex → sorted
// incident-edge list (each list addressed by its own bounds, so that Extend
// can move a list that grows instead of shifting all the others). Hyperedge vertex lists are the primary operands of the
// overlap-centric execution model, so they are kept sorted and duplicate-free
// at construction time; the builder also removes duplicate hyperedges, the
// preprocessing step the paper applies to all datasets (Sec. 5.1).
//
// Vertices may carry integer labels for labeled HPM. Label IDs are dense
// (0..NumLabels-1).
package hypergraph

import (
	"fmt"
	"sync/atomic"
)

// span is the bounds [lo, hi) of one vertex's incident-edge list in
// vertEdges.
type span struct{ lo, hi uint32 }

// Hypergraph is an immutable hypergraph with dual incidence.
// Construct with Build or Parse; the zero value is an empty hypergraph.
type Hypergraph struct {
	edgeOff   []uint32 // len NumEdges+1; offsets into edgeVerts
	edgeVerts []uint32 // concatenated sorted vertex lists
	// Vertex v's sorted incident-edge list is vertEdges[vertSpan[v].lo:
	// vertSpan[v].hi]. Build writes the lists back to back; Extend rewrites
	// a list that grows at the arena's end, and the entries it leaves behind
	// are garbage until the hypergraph is built afresh (Moved counts them:
	// len(vertEdges) − len(edgeVerts), as the live entries are the
	// incidences).
	vertSpan   []span
	vertEdges  []uint32
	labels     []uint32 // per-vertex label, nil when unlabeled
	numLabels  int
	edgeLabels []uint32 // per-hyperedge label, nil when unlabeled

	// extended is claimed by the first Extend of this hypergraph, which
	// appends into the spare capacity of its arenas; readers of this one
	// never index there. Any later Extend of it copies instead.
	extended atomic.Bool

	// fp memoises Fingerprint; 0 = not computed yet. Build and Extend leave
	// it unset, so every new hypergraph hashes its own arrays once.
	fp atomic.Uint64
}

// NumVertices returns |V|.
func (h *Hypergraph) NumVertices() int { return len(h.vertSpan) }

// NumEdges returns |E|.
func (h *Hypergraph) NumEdges() int {
	if len(h.edgeOff) == 0 {
		return 0
	}
	return len(h.edgeOff) - 1
}

// EdgeVertices returns the sorted vertex list of hyperedge e. The slice
// aliases internal storage and must not be modified.
//
//ohmlint:hotpath
func (h *Hypergraph) EdgeVertices(e uint32) []uint32 {
	return h.edgeVerts[h.edgeOff[e]:h.edgeOff[e+1]]
}

// Degree returns D(e), the number of vertices in hyperedge e.
//
//ohmlint:hotpath
func (h *Hypergraph) Degree(e uint32) int {
	return int(h.edgeOff[e+1] - h.edgeOff[e])
}

// VertexEdges returns the sorted incident hyperedge list N(v). The slice
// aliases internal storage and must not be modified.
//
//ohmlint:hotpath
func (h *Hypergraph) VertexEdges(v uint32) []uint32 {
	sp := h.vertSpan[v]
	return h.vertEdges[sp.lo:sp.hi]
}

// VertexDegree returns D(v), the number of hyperedges incident to vertex v.
//
//ohmlint:hotpath
func (h *Hypergraph) VertexDegree(v uint32) int {
	sp := h.vertSpan[v]
	return int(sp.hi - sp.lo)
}

// Labeled reports whether vertices carry labels.
func (h *Hypergraph) Labeled() bool { return h.labels != nil }

// NumLabels returns the number of distinct vertex labels (0 when unlabeled).
func (h *Hypergraph) NumLabels() int { return h.numLabels }

// Label returns the label of vertex v; it panics when the hypergraph is
// unlabeled.
//
//ohmlint:hotpath
func (h *Hypergraph) Label(v uint32) uint32 { return h.labels[v] }

// Labels returns the full per-vertex label slice (nil when unlabeled). The
// slice aliases internal storage and must not be modified.
func (h *Hypergraph) Labels() []uint32 { return h.labels }

// EdgeLabeled reports whether hyperedges carry labels — the
// hyperedge-labeled extension of Sec. 4.3.1.
func (h *Hypergraph) EdgeLabeled() bool { return h.edgeLabels != nil }

// EdgeLabel returns the label of hyperedge e; it panics when hyperedges are
// unlabeled.
//
//ohmlint:hotpath
func (h *Hypergraph) EdgeLabel(e uint32) uint32 { return h.edgeLabels[e] }

// TotalIncidence returns Σ_e D(e) (= Σ_v D(v)), the incidence count.
func (h *Hypergraph) TotalIncidence() int { return len(h.edgeVerts) }

// AvgEdgeDegree returns the average hyperedge degree (AD in Table 3).
func (h *Hypergraph) AvgEdgeDegree() float64 {
	if h.NumEdges() == 0 {
		return 0
	}
	return float64(len(h.edgeVerts)) / float64(h.NumEdges())
}

// MemoryBytes estimates the resident size of the incidence arrays, an
// extended hypergraph's garbage included. Used for the Table 6 memory
// accounting.
func (h *Hypergraph) MemoryBytes() int64 {
	n := len(h.edgeOff) + len(h.edgeVerts) + 2*len(h.vertSpan) + len(h.vertEdges) + len(h.labels) + len(h.edgeLabels)
	return int64(n) * 4
}

// Fingerprint returns a content hash of the hypergraph structure (FNV-1a
// over the edge CSR and the labels; the vertex lists follow from the edges). Derived artifacts (e.g. a persisted
// DAL) embed it to detect mismatched inputs at load time. The hypergraph is
// immutable, so the hash is computed on the first call and remembered;
// concurrent first calls compute the same value and store it twice.
func (h *Hypergraph) Fingerprint() uint64 {
	if fp := h.fp.Load(); fp != 0 {
		return fp
	}
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	hash := uint64(offset)
	mix := func(arr []uint32) {
		for _, v := range arr {
			hash ^= uint64(v)
			hash *= prime
		}
		hash ^= uint64(len(arr))
		hash *= prime
	}
	mix(h.edgeOff)
	mix(h.edgeVerts)
	mix(h.labels)
	mix(h.edgeLabels)
	// A hash of exactly 0 reads as "unset" and is recomputed per call.
	h.fp.Store(hash)
	return hash
}

// String summarizes the hypergraph for logs.
func (h *Hypergraph) String() string {
	tag := ""
	if h.Labeled() {
		tag = fmt.Sprintf(", %d labels", h.numLabels)
	}
	return fmt.Sprintf("hypergraph{|V|=%d, |E|=%d, AD=%.2f%s}",
		h.NumVertices(), h.NumEdges(), h.AvgEdgeDegree(), tag)
}
