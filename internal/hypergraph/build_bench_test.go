package hypergraph_test

import (
	"testing"

	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
)

// denseBlockEdges lays out the benchmark's dense block hypergraph (core sizes
// 64…256 in steps of 8, 36 hyperedges per clique block, 400 hub pairs with 12
// pendants each), blocks in core order: long strictly ascending hyperedges on
// contiguous vertex IDs.
func denseBlockEdges() (int, [][]uint32) {
	span := func(base, n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(base + i)
		}
		return out
	}
	const k, hubs, pendants = 36, 400, 12
	var edges [][]uint32
	next := 0
	for c := 64; c <= 256; c += 8 {
		for i := 0; i < k; i++ {
			edges = append(edges, append(span(next, c), uint32(next+c+i)))
		}
		next += c + k
		hc := c + 3
		leaf := next + hubs*(hc+2)
		for hb := 0; hb < hubs; hb++ {
			base := next + hb*(hc+2)
			aPriv, bPriv := uint32(base+hc), uint32(base+hc+1)
			edges = append(edges, append(span(base, hc), aPriv), append(span(base, hc), bPriv))
			for j := 0; j < pendants; j++ {
				edges = append(edges, []uint32{aPriv, uint32(leaf)})
				leaf++
			}
		}
		next = leaf
	}
	return next, edges
}

// BenchmarkBuild times Build on the set-up inputs of the benchmark's mining
// workloads: the dense block layout, and the TC preset's hyperedges (sorted
// and distinct, as the generator hands them over).
func BenchmarkBuild(b *testing.B) {
	pr, err := gen.PresetByTag("TC")
	if err != nil {
		b.Fatal(err)
	}
	tc := gen.MustGenerate(pr.Config)
	tcEdges := make([][]uint32, tc.NumEdges())
	for e := range tcEdges {
		tcEdges[e] = tc.EdgeVertices(uint32(e))
	}
	nv, dense := denseBlockEdges()
	for _, in := range []struct {
		name  string
		nv    int
		edges [][]uint32
	}{{"dense-block", nv, dense}, {"TC", tc.NumVertices(), tcEdges}} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hypergraph.Build(in.nv, in.edges, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
