// Package pattern defines pattern hypergraphs and the workload machinery of
// the paper's evaluation: literal patterns, random patterns sampled from a
// data hypergraph (Table 4), dense patterns (Sec. 5.5), and automorphism
// counting.
//
// A pattern's vertices are dense IDs 0..NumVertices-1 local to the pattern.
// Hyperedges are sorted vertex sets. Patterns must be connected (the
// matching order extends a connected prefix) and must not contain duplicate
// hyperedges (a data hypergraph is deduplicated, so such a pattern has no
// embeddings by construction).
package pattern

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ohminer/internal/intset"
	"ohminer/internal/sig"
)

// Pattern is an immutable pattern hypergraph.
type Pattern struct {
	edges       [][]uint32
	labels      []uint32 // per pattern-vertex label; nil when unlabeled
	edgeLabels  []uint32 // per-hyperedge label; nil when unlabeled
	numVertices int
	signature   sig.Signature

	symOnce   sync.Once // runs symmetry on first use
	aut       int
	restrict  [][]int   // see SymmetryRestrictions
	orbitOf   []int     // orbitOf[e]: the smallest hyperedge in e's orbit
	canonOnce sync.Once // runs canonical on first use
	canonKey  string
	canonPerm []int // canonPerm[i]: the hyperedge at canonical position i
}

// Common construction errors.
var (
	ErrDisconnected = errors.New("pattern: hyperedges do not form a connected pattern")
	ErrDuplicate    = errors.New("pattern: duplicate hyperedge")
)

// New builds a pattern from hyperedge vertex lists (any order, duplicates
// within an edge removed). labels, when non-nil, assigns a label to every
// pattern vertex referenced by the edges.
func New(edges [][]uint32, labels []uint32) (*Pattern, error) {
	return NewEdgeLabeled(edges, labels, nil)
}

// NewEdgeLabeled is New for hyperedge-labeled patterns (the Sec. 4.3.1
// extension): edgeLabels assigns a label to every pattern hyperedge, which
// the engine matches against data hyperedge labels during candidate
// generation. Identical vertex sets with different edge labels are distinct
// hyperedges.
func NewEdgeLabeled(edges [][]uint32, labels, edgeLabels []uint32) (*Pattern, error) {
	if len(edges) == 0 {
		return nil, errors.New("pattern: no hyperedges")
	}
	if len(edges) > sig.MaxEdges {
		return nil, fmt.Errorf("pattern: %d hyperedges exceeds limit %d", len(edges), sig.MaxEdges)
	}
	p := &Pattern{edges: make([][]uint32, len(edges))}
	maxV := -1
	for i, raw := range edges {
		if len(raw) == 0 {
			return nil, fmt.Errorf("pattern: hyperedge %d is empty", i)
		}
		e := append([]uint32(nil), raw...)
		sort.Slice(e, func(a, b int) bool { return e[a] < e[b] })
		w := 1
		for k := 1; k < len(e); k++ {
			if e[k] != e[w-1] {
				e[w] = e[k]
				w++
			}
		}
		p.edges[i] = e[:w]
		if int(e[w-1]) > maxV {
			maxV = int(e[w-1])
		}
	}
	p.numVertices = maxV + 1
	if edgeLabels != nil {
		if len(edgeLabels) != len(edges) {
			return nil, fmt.Errorf("pattern: %d edge labels for %d hyperedges", len(edgeLabels), len(edges))
		}
		p.edgeLabels = append([]uint32(nil), edgeLabels...)
	}
	for i := 0; i < len(p.edges); i++ {
		for j := i + 1; j < len(p.edges); j++ {
			if intset.Equal(p.edges[i], p.edges[j]) && p.edgeLabel(i) == p.edgeLabel(j) {
				return nil, fmt.Errorf("%w: edges %d and %d", ErrDuplicate, i, j)
			}
		}
	}
	if !connected(p.edges) {
		return nil, ErrDisconnected
	}
	if labels != nil {
		if len(labels) != p.numVertices {
			return nil, fmt.Errorf("pattern: %d labels for %d vertices", len(labels), p.numVertices)
		}
		p.labels = append([]uint32(nil), labels...)
	}
	s, err := sig.Compute(p.edges)
	if err != nil {
		return nil, err
	}
	p.signature = s
	return p, nil
}

// MustNew is New that panics on error (literals in tests and examples).
func MustNew(edges [][]uint32, labels []uint32) *Pattern {
	p, err := New(edges, labels)
	if err != nil {
		panic(err)
	}
	return p
}

// Parse reads a pattern literal: hyperedges separated by ';', vertex IDs by
// whitespace or commas, e.g. "0 1 2; 2 3; 3 4 5".
func Parse(s string) (*Pattern, error) {
	parts := strings.Split(s, ";")
	edges := make([][]uint32, 0, len(parts))
	for _, part := range parts {
		fields := strings.FieldsFunc(part, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' })
		if len(fields) == 0 {
			continue
		}
		edge := make([]uint32, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("pattern: %q: %v", f, err)
			}
			edge = append(edge, uint32(v))
		}
		edges = append(edges, edge)
	}
	return New(edges, nil)
}

// NumEdges returns the number of hyperedges.
func (p *Pattern) NumEdges() int { return len(p.edges) }

// NumVertices returns the number of pattern vertices.
func (p *Pattern) NumVertices() int { return p.numVertices }

// Edge returns the sorted vertex list of hyperedge i (aliases internal
// storage).
func (p *Pattern) Edge(i int) []uint32 { return p.edges[i] }

// Edges returns all hyperedges (aliases internal storage).
func (p *Pattern) Edges() [][]uint32 { return p.edges }

// Degree returns the size of hyperedge i.
func (p *Pattern) Degree(i int) int { return len(p.edges[i]) }

// Labeled reports whether the pattern carries vertex labels.
func (p *Pattern) Labeled() bool { return p.labels != nil }

// EdgeLabeled reports whether the pattern carries hyperedge labels.
func (p *Pattern) EdgeLabeled() bool { return p.edgeLabels != nil }

// EdgeLabel returns the label of hyperedge i; it panics when hyperedges are
// unlabeled.
func (p *Pattern) EdgeLabel(i int) uint32 { return p.edgeLabels[i] }

// edgeLabel is EdgeLabel defaulting to 0 for unlabeled patterns.
func (p *Pattern) edgeLabel(i int) uint32 {
	if p.edgeLabels == nil {
		return 0
	}
	return p.edgeLabels[i]
}

// Label returns the label of pattern vertex v.
func (p *Pattern) Label(v uint32) uint32 { return p.labels[v] }

// Signature returns the pattern's overlap signature (edges in stored
// order).
func (p *Pattern) Signature() sig.Signature { return p.signature }

// LabelSignature computes the labeled overlap signature. It errors when the
// pattern is unlabeled.
func (p *Pattern) LabelSignature() (sig.LabelSignature, error) {
	if !p.Labeled() {
		return sig.LabelSignature{}, errors.New("pattern: not labeled")
	}
	return sig.ComputeLabeled(p.edges, func(v uint32) uint32 { return p.labels[v] })
}

// String renders the pattern in Parse format.
func (p *Pattern) String() string {
	var b []byte
	for i, e := range p.edges {
		if i > 0 {
			b = append(b, "; "...)
		}
		for j, v := range e {
			if j > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendUint(b, uint64(v), 10)
		}
	}
	return string(b)
}

// connected reports whether the hyperedges form one connected component
// (edges are nodes; sharing a vertex connects them).
func connected(edges [][]uint32) bool {
	m := len(edges)
	if m == 1 {
		return true
	}
	visited := make([]bool, m)
	stack := []int{0}
	visited[0] = true
	seen := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j := 0; j < m; j++ {
			if !visited[j] && intset.Intersects(edges[cur], edges[j]) {
				visited[j] = true
				seen++
				stack = append(stack, j)
			}
		}
	}
	return seen == m
}

// Reorder returns a new pattern whose hyperedges follow the given
// permutation (order[i] = index of the edge placed at position i). Vertex
// IDs and labels are unchanged.
func (p *Pattern) Reorder(order []int) (*Pattern, error) {
	if len(order) != len(p.edges) {
		return nil, fmt.Errorf("pattern: order length %d != %d edges", len(order), len(p.edges))
	}
	seen := make([]bool, len(order))
	edges := make([][]uint32, len(order))
	var edgeLabels []uint32
	if p.edgeLabels != nil {
		edgeLabels = make([]uint32, len(order))
	}
	for i, o := range order {
		if o < 0 || o >= len(p.edges) || seen[o] {
			return nil, fmt.Errorf("pattern: invalid permutation %v", order)
		}
		seen[o] = true
		edges[i] = p.edges[o]
		if edgeLabels != nil {
			edgeLabels[i] = p.edgeLabels[o]
		}
	}
	return NewEdgeLabeled(edges, p.labels, edgeLabels)
}
