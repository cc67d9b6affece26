// Package bruteforce provides the reference HPM enumerator used as ground
// truth in differential tests.
//
// It enumerates every ordered tuple of distinct data hyperedges whose
// degrees match the pattern's and accepts a tuple when its full overlap
// signature (and label signature, for labeled patterns) equals the
// pattern's — a direct transliteration of the subhypergraph-isomorphism
// definition via Theorem 1, with no pruning, no plans, no sharing.
// Exponential: only for small inputs.
package bruteforce

import (
	"ohminer/internal/hypergraph"
	"ohminer/internal/pattern"
	"ohminer/internal/sig"
)

// Count returns the number of ordered embeddings of p in h (one per pattern
// automorphism for each unordered embedding).
func Count(h *hypergraph.Hypergraph, p *pattern.Pattern) uint64 {
	var n uint64
	embeddings(h, p, func([]uint32) { n++ })
	return n
}

// embeddings calls fn with every ordered embedding of p in h, in ascending
// lexicographic order of the data-hyperedge tuple.
func embeddings(h *hypergraph.Hypergraph, p *pattern.Pattern, fn func(tuple []uint32)) {
	m := p.NumEdges()
	want := p.Signature()
	var wantLab sig.LabelSignature
	labeled := p.Labeled()
	if labeled {
		wantLab, _ = p.LabelSignature()
	}

	// Pre-bucket data edges by degree.
	byDegree := map[int][]uint32{}
	for e := 0; e < h.NumEdges(); e++ {
		d := h.Degree(uint32(e))
		byDegree[d] = append(byDegree[d], uint32(e))
	}

	tuple := make([]uint32, m)
	edges := make([][]uint32, m)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == m {
			got, err := sig.Compute(edges)
			if err != nil || !got.Equal(want) {
				return
			}
			if labeled {
				gotLab, err := sig.ComputeLabeled(edges, func(v uint32) uint32 { return h.Label(v) })
				if err != nil || !labelSigEqual(gotLab, wantLab) {
					return
				}
			}
			fn(tuple)
			return
		}
		for _, c := range byDegree[p.Degree(pos)] {
			if p.EdgeLabeled() && (!h.EdgeLabeled() || h.EdgeLabel(c) != p.EdgeLabel(pos)) {
				continue
			}
			dup := false
			for j := 0; j < pos; j++ {
				if tuple[j] == c {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			tuple[pos] = c
			edges[pos] = h.EdgeVertices(c)
			rec(pos + 1)
		}
	}
	rec(0)
}

func labelSigEqual(a, b sig.LabelSignature) bool {
	if a.M != b.M {
		return false
	}
	for mask := 1; mask < 1<<a.M; mask++ {
		ca, cb := a.Counts[mask], b.Counts[mask]
		if len(ca) != len(cb) {
			return false
		}
		for i := range ca {
			if ca[i] != cb[i] {
				return false
			}
		}
	}
	return true
}

// AutomorphismPerms returns p's automorphisms as permutations (perm[i] =
// hyperedge at position i), the identity first: p's embeddings in its own
// hyperedges, found among all K! orders — the symmetry search's test oracle.
func AutomorphismPerms(p *pattern.Pattern) [][]int {
	var labels, edgeLabels []uint32
	for v := 0; p.Labeled() && v < p.NumVertices(); v++ {
		labels = append(labels, p.Label(uint32(v)))
	}
	for i := 0; p.EdgeLabeled() && i < p.NumEdges(); i++ {
		edgeLabels = append(edgeLabels, p.EdgeLabel(i))
	}
	h, err := hypergraph.BuildEdgeLabeled(p.NumVertices(), p.Edges(), labels, edgeLabels)
	if err != nil {
		return nil // unreachable: a valid pattern is a valid hypergraph
	}
	var perms [][]int
	embeddings(h, p, func(tuple []uint32) {
		perm := make([]int, len(tuple))
		for i, e := range tuple {
			perm[i] = int(e)
		}
		perms = append(perms, perm)
	})
	return perms
}
