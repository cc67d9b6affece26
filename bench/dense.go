package main

import (
	"fmt"

	"ohminer"
)

// The dense workload's hypergraph is made of blocks with contiguous vertex
// IDs, so vertex sets and adjacency groups are bitmap-backed (the inputs of
// internal/exp/kern.go, many sizes in one store). For every core size c:
//
//   - a clique block: denseK hyperedges that share a core of c vertices and
//     have one private vertex each (degree c+1). Any j of them match the
//     j-clique pattern, so the ordered count is k(k-1)...(k-j+1);
//   - a hub block: denseHubs pairs (A, B) sharing a core of c+3 vertices
//     (degree c+4, so the two kinds of block never mix), with densePendants
//     degree-2 hyperedges hanging off A's private vertex. The pattern A∩B =
//     core, A∩C = {A's private}, B∩C = ∅ has hubs·pendants embeddings.
const (
	denseK        = 36
	denseHubs     = 400
	densePendants = 12
)

func denseCores(e *env) []int {
	if e.tiny {
		return []int{64, 160}
	}
	var cores []int
	for c := 64; c <= 256; c += 8 {
		cores = append(cores, c)
	}
	return cores
}

func span32(base, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(base + i)
	}
	return out
}

// denseHypergraph lays the blocks out in the seed's order and returns the
// vertex count and the hyperedges.
func denseHypergraph(cores []int, order []int) (int, [][]uint32) {
	var edges [][]uint32
	next := 0
	for _, bi := range order {
		c := cores[bi]
		// Clique block.
		core := span32(next, c)
		for i := 0; i < denseK; i++ {
			edges = append(edges, append(append([]uint32(nil), core...), uint32(next+c+i)))
		}
		next += c + denseK
		// Hub block: cores first, then the pendants' leaf vertices.
		hc := c + 3
		leaf := next + denseHubs*(hc+2)
		for h := 0; h < denseHubs; h++ {
			base := next + h*(hc+2)
			hub := span32(base, hc)
			aPriv, bPriv := uint32(base+hc), uint32(base+hc+1)
			edges = append(edges,
				append(append([]uint32(nil), hub...), aPriv),
				append(append([]uint32(nil), hub...), bPriv))
			for j := 0; j < densePendants; j++ {
				edges = append(edges, []uint32{aPriv, uint32(leaf)})
				leaf++
			}
		}
		next = leaf
	}
	return next, edges
}

// cliquePattern is j hyperedges sharing a core of c vertices.
func cliquePattern(c, j int) (*ohminer.Pattern, error) {
	edges := make([][]uint32, j)
	for i := range edges {
		edges[i] = append(span32(0, c), uint32(c+i))
	}
	return ohminer.NewPattern(edges, nil)
}

func hubPattern(c int) (*ohminer.Pattern, error) {
	hc := c + 3
	return ohminer.NewPattern([][]uint32{
		append(span32(0, hc), uint32(hc)),
		append(span32(0, hc), uint32(hc+1)),
		{uint32(hc), uint32(hc + 2)},
	}, nil)
}

// setupMineDense builds the block hypergraph and the script: for every core
// size a triangle, a 4-clique, the hub pattern, and the triangle again
// without symmetry breaking, each with its closed-form count.
func setupMineDense(e *env) (instance, error) {
	cores := denseCores(e)
	rng := rngFor(e.seed, "mine_dense")
	order := rng.Perm(len(cores))
	ds, err := buildDataset(e, func() (*ohminer.Hypergraph, error) {
		nv, edges := denseHypergraph(cores, order)
		return ohminer.BuildHypergraph(nv, edges, nil)
	})
	if err != nil {
		return nil, err
	}
	var ops []mineOp
	const k = uint64(denseK)
	for _, c := range cores {
		tri, err := cliquePattern(c, 3)
		if err != nil {
			return nil, err
		}
		quad, err := cliquePattern(c, 4)
		if err != nil {
			return nil, err
		}
		hub, err := hubPattern(c)
		if err != nil {
			return nil, err
		}
		tag := fmt.Sprintf("core=%d k=%d", c, denseK)
		hubs := uint64(denseHubs * densePendants)
		ops = append(ops,
			mineOp{name: "triangle " + tag, p: tri, ordered: k * (k - 1) * (k - 2), unique: k * (k - 1) * (k - 2) / 6},
			mineOp{name: "4-clique " + tag, p: quad, ordered: k * (k - 1) * (k - 2) * (k - 3), unique: k * (k - 1) * (k - 2) * (k - 3) / 24},
			mineOp{name: fmt.Sprintf("skew-hub core=%d hubs=%d pendants=%d", c+3, denseHubs, densePendants), p: hub, ordered: hubs, unique: hubs},
			mineOp{name: "triangle nosym " + tag, p: tri, ordered: k * (k - 1) * (k - 2), unique: k * (k - 1) * (k - 2) / 6, noSym: true},
		)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return &mineInst{ds: ds, ops: ops}, nil
}
