package dal

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
)

// TestGroupSumsAgree: the group sums the matching-order cost model reads are
// the same whether the store was built, grown by BuildDelta or loaded from
// its file — a coordinator and its workers price orders alike — and each one
// is what summing AdjSet over the hyperedges of the degree gives.
func TestGroupSumsAgree(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 300, NumEdges: 700,
		Communities: 15, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 9, EdgeSizeMean: 5, Seed: 13})
	built := Build(h)

	edges := make([][]uint32, h.NumEdges())
	for e := range edges {
		edges[e] = h.EdgeVertices(uint32(e))
	}
	cut := len(edges) * 2 / 3
	base, err := hypergraph.Build(h.NumVertices(), edges[:cut], nil)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := hypergraph.Extend(base, edges[cut:])
	if err != nil {
		t.Fatal(err)
	}
	grown := BuildDelta(Build(base), ext)

	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), h)
	if err != nil {
		t.Fatal(err)
	}

	want := built.groupSums()
	if len(want) == 0 {
		t.Fatal("no group sums")
	}
	for name, s := range map[string]*Store{"BuildDelta": grown, "Load": loaded} {
		if got := s.groupSums(); !slices.Equal(got, want) {
			t.Fatalf("%s: %d group sums differ from Build's %d", name, len(got), len(want))
		}
	}

	for _, k := range want {
		var sum uint64
		for _, e := range built.EdgesWithDegree(int(k.deg)) {
			sum += uint64(built.AdjSet(e, int(k.nbr), int(k.ov)).Len())
		}
		if got := built.GroupSum(int(k.deg), int(k.nbr), int(k.ov)); got != sum || got != k.sum {
			t.Fatalf("GroupSum(%d, %d, %d) = %d, summed AdjSet %d", k.deg, k.nbr, k.ov, got, sum)
		}
	}
	for _, d := range built.Degrees() {
		for _, nbr := range built.Degrees() {
			var sum uint64
			for _, e := range built.EdgesWithDegree(d) {
				for _, g := range built.AdjSets(e, nbr, nil) {
					sum += uint64(g.Len())
				}
			}
			if got := built.GroupSum(d, nbr, -1); got != sum {
				t.Fatalf("GroupSum(%d, %d, all) = %d, summed AdjSets %d", d, nbr, got, sum)
			}
		}
	}
	if got := built.GroupSum(1000, 2, 1); got != 0 {
		t.Fatalf("GroupSum of an absent degree = %d", got)
	}
}

// TestGroupSumsConcurrent: the sums are built on first use, and a store is
// shared by concurrent queries (a Session, a coordinator and its in-process
// workers), so several goroutines asking at once must get the same answer.
func TestGroupSumsConcurrent(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 200, NumEdges: 400,
		Communities: 8, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 6, EdgeSizeMean: 4, Seed: 3})
	want := Build(h).GroupSum(4, 3, -1)
	s := Build(h)
	got := make([]uint64, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = s.GroupSum(4, 3, -1)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("goroutine %d: GroupSum = %d, want %d", i, g, want)
		}
	}
}
