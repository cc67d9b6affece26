package dal

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
	"ohminer/internal/intset"
)

// fig1Hypergraph reproduces the data hypergraph of Figure 1(b)/Table 2:
// e1..e5 with degrees 6,6,8,6,8 and the adjacency of Table 2.
func fig1Hypergraph(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	// Vertex numbering: v1..v12 → 0..11 plus two extra for e4/e5 shape.
	edges := [][]uint32{
		{0, 1, 2, 3, 4, 5},         // e1 = {v1..v6}
		{3, 4, 5, 6, 7, 8},         // e2 = {v4..v9}
		{3, 4, 5, 6, 7, 9, 10, 11}, // e3 = {v4,v5,v6,v7,v8→v7? structure per Fig 1}
		{0, 1, 2, 12, 13, 9},       // e4: overlaps e1 {v1,v2,v3} and e3 {v10}
		{1, 3, 4, 5, 6, 7, 8, 14},  // e5: degree 8, overlaps e1,e2,e3
	}
	return hypergraph.MustBuild(15, edges, nil)
}

// TestTable2Shape: Table 2's A(e1), with each degree group split by overlap
// size — e2 and e4 (degree 6) and e3 (degree 8) share three vertices with e1,
// e5 (degree 8) shares four.
func TestTable2Shape(t *testing.T) {
	h := fig1Hypergraph(t)
	s := Build(h)

	if adj := s.Adj(0); !slices.Equal(adj, []uint32{1, 3, 2, 4}) {
		t.Fatalf("A(e1)=%v want [1 3 2 4]", adj)
	}
	for _, c := range []struct {
		d, ov int
		want  []uint32
	}{
		{6, 3, []uint32{1, 3}}, // e2, e4
		{8, 3, []uint32{2}},    // e3
		{8, 4, []uint32{4}},    // e5
		{6, 4, nil}, {7, 3, nil}, {8, 2, nil}, {8, 5, nil}, {9, 3, nil}, {-1, 3, nil}, {6, -1, nil},
	} {
		if got := s.AdjSet(0, c.d, c.ov).Elems(); !slices.Equal(got, c.want) {
			t.Errorf("AdjSet(e1,%d,%d)=%v want %v", c.d, c.ov, got, c.want)
		}
	}
	if st := s.Containers(); st.DegreeGroups != 10 || st.AdjGroups != 16 {
		t.Errorf("Containers()=%+v, want 10 degree groups in 16 (degree, overlap) groups", st)
	}
}

func TestConnected(t *testing.T) {
	h := fig1Hypergraph(t)
	s := Build(h)
	for a := 0; a < h.NumEdges(); a++ {
		for b := 0; b < h.NumEdges(); b++ {
			want := a != b && h.Connected(uint32(a), uint32(b))
			if got := s.Connected(uint32(a), uint32(b)); got != want {
				t.Errorf("Connected(%d,%d)=%v want %v", a, b, got, want)
			}
		}
	}
}

// denseBlocks is a small copy of the benchmark's block hypergraph: per core
// size a clique block (k hyperedges sharing the core, one private vertex
// each) and hub pairs with pendants, all on contiguous vertex IDs so groups
// and vertex sets earn bitmap windows.
func denseBlocks(t testing.TB, cores []int, k, hubs, pendants int) *hypergraph.Hypergraph {
	t.Helper()
	span := func(base, n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(base + i)
		}
		return out
	}
	var edges [][]uint32
	next := 0
	for _, c := range cores {
		for i := 0; i < k; i++ {
			edges = append(edges, append(span(next, c), uint32(next+c+i)))
		}
		next += c + k
		for hb := 0; hb < hubs; hb++ {
			edges = append(edges, append(span(next, c+3), uint32(next+c+3)), append(span(next, c+3), uint32(next+c+4)))
			for j := 0; j < pendants; j++ {
				edges = append(edges, []uint32{uint32(next + c + 3), uint32(next + c + 5 + j)})
			}
			next += c + 5 + pendants
		}
	}
	return hypergraph.MustBuild(next, edges, nil)
}

// definitionGraphs are the hypergraphs the store is checked on against its
// definition: random small ones, the sparse power-law generator, the dense
// block layout, and a hyperedge-labelled one with co-extensive hyperedges
// (overlap = degree on both sides).
func definitionGraphs(t *testing.T) map[string]*hypergraph.Hypergraph {
	t.Helper()
	out := map[string]*hypergraph.Hypergraph{
		"sparse": gen.MustGenerate(gen.Config{Name: "t", NumVertices: 300, NumEdges: 500,
			Communities: 12, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 9, EdgeSizeMean: 4, Seed: 5}),
		"sparse-labelled": gen.MustGenerate(gen.Config{Name: "t", NumVertices: 200, NumEdges: 400, NumLabels: 4,
			Communities: 6, MemberOverlap: 2, EdgeSizeMin: 2, EdgeSizeMax: 12, EdgeSizeMean: 6, Seed: 6}),
		"dense-block": denseBlocks(t, []int{64, 72}, 70, 3, 4),
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		nv := 10 + rng.Intn(40)
		raw := make([][]uint32, 5+rng.Intn(60))
		labels := make([]uint32, len(raw))
		for i := range raw {
			for j := 1 + rng.Intn(5); j > 0; j-- {
				raw[i] = append(raw[i], uint32(rng.Intn(nv)))
			}
			labels[i] = uint32(rng.Intn(2))
		}
		h, err := hypergraph.BuildEdgeLabeled(nv, raw, nil, labels)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("edge-labelled-%d", trial)] = h
	}
	return out
}

// TestAgainstDefinition cross-checks the store against the definition of its
// index by brute-force intersection: for every e, AdjSet(e,d,ov) is exactly
// {o ≠ e : deg(o)=d ∧ |V(e)∩V(o)|=ov}, the groups partition Adj(e) in
// (degree, overlap, id) order, and Connected agrees with vertex-set
// intersection. A windowed group must answer like its array.
func TestAgainstDefinition(t *testing.T) {
	for name, h := range definitionGraphs(t) {
		s := Build(h)
		m := h.NumEdges()
		windowed := 0
		for e := uint32(0); e < uint32(m); e++ {
			want := map[[2]int][]uint32{}
			for o := uint32(0); o < uint32(m); o++ {
				ov := intset.IntersectCount(h.EdgeVertices(e), h.EdgeVertices(o))
				if got := s.Connected(e, o); got != (o != e && ov > 0) {
					t.Fatalf("%s: Connected(%d,%d)=%v with %d shared vertices", name, e, o, got, ov)
				}
				if o != e && ov > 0 {
					key := [2]int{h.Degree(o), ov}
					want[key] = append(want[key], o)
				}
			}
			keys := make([][2]int, 0, len(want))
			for key := range want {
				keys = append(keys, key)
			}
			slices.SortFunc(keys, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
			var concat []uint32
			for _, key := range keys {
				set := s.AdjSet(e, key[0], key[1])
				if !slices.Equal(set.Elems(), want[key]) {
					t.Fatalf("%s: AdjSet(%d,%d,%d)=%v want %v", name, e, key[0], key[1], set.Elems(), want[key])
				}
				if set.HasWindow() {
					windowed++
					for o := uint32(0); o < uint32(m); o++ {
						if _, in := slices.BinarySearch(want[key], o); set.Contains(o) != in {
							t.Fatalf("%s: windowed AdjSet(%d,%d,%d).Contains(%d)=%v", name, e, key[0], key[1], o, !in)
						}
					}
				}
				concat = append(concat, want[key]...)
				for _, miss := range [][2]int{{key[0], key[1] + 1}, {key[0] + 1, key[1]}} {
					if _, ok := want[miss]; !ok && s.AdjSet(e, miss[0], miss[1]).Len() != 0 {
						t.Fatalf("%s: AdjSet(%d,%d,%d) not empty", name, e, miss[0], miss[1])
					}
				}
			}
			if !slices.Equal(s.Adj(e), concat) {
				t.Fatalf("%s: Adj(%d)=%v, groups in key order give %v", name, e, s.Adj(e), concat)
			}
			if sp := s.spans[e]; int(sp.grpHi-sp.grpLo) != len(keys) {
				t.Fatalf("%s: hyperedge %d has %d groups, want %d", name, e, sp.grpHi-sp.grpLo, len(keys))
			}
		}
		if st := s.Containers(); st.AdjWindowed != windowed || (windowed == 0) != (s.grpWinOff == nil) {
			t.Fatalf("%s: %d windowed groups seen, Containers()=%+v, window table nil=%v", name, windowed, st, s.grpWinOff == nil)
		}
		if name == "dense-block" && windowed == 0 {
			t.Fatalf("dense-block: no group earned a window; the bitmap path went untested")
		}
	}
}

// checkAdjSets holds AdjSets to its definition on every (hyperedge, degree)
// of the store, absent degrees included: the groups are pairwise disjoint,
// each sorted by ID, a windowed one answers Contains like its array, and
// together they hold exactly the degree-d hyperedges Connected reports. It
// returns how many windowed groups it saw.
func checkAdjSets(t *testing.T, name string, s *Store) (windowed int) {
	t.Helper()
	h := s.Hypergraph()
	m := uint32(h.NumEdges())
	degrees := append(s.Degrees(), -1, 0, s.Degrees()[len(s.Degrees())-1]+1)
	var sets []intset.Set
	for e := uint32(0); e < m; e++ {
		for _, d := range degrees {
			var want, got []uint32
			for o := uint32(0); o < m; o++ {
				if h.Degree(o) == d && s.Connected(e, o) {
					want = append(want, o)
				}
			}
			sets = s.AdjSets(e, d, sets[:0])
			for _, set := range sets {
				if set.Len() == 0 || !intset.SortedUnique(set.Elems()) {
					t.Fatalf("%s: AdjSets(%d,%d) holds the group %v", name, e, d, set.Elems())
				}
				if set.HasWindow() {
					windowed++
					for o := uint32(0); o < m; o++ {
						if _, in := slices.BinarySearch(set.Elems(), o); set.Contains(o) != in {
							t.Fatalf("%s: windowed group of AdjSets(%d,%d): Contains(%d)=%v", name, e, d, o, !in)
						}
					}
				}
				got = append(got, set.Elems()...)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: AdjSets(%d,%d) holds %v in %d groups, Connected gives %v", name, e, d, got, len(sets), want)
			}
		}
	}
	return windowed
}

// TestAdjSetsEqualsConnected: the accessor candidate generation subtracts
// disconnected positions through agrees with Connected — the test the engine
// used to make per candidate, and internal/baseline still does — on the
// golden hypergraph as built, as grown by BuildDelta and as loaded, and on
// the dense block layout, whose groups carry bitmap windows.
func TestAdjSetsEqualsConnected(t *testing.T) {
	h := goldenHypergraph()
	built := Build(h)
	checkAdjSets(t, "golden", built)

	rng := rand.New(rand.NewSource(3))
	grownH, err := hypergraph.Extend(h, randomUniqueEdges(rng, h.NumVertices(), 25))
	if err != nil {
		t.Fatal(err)
	}
	checkAdjSets(t, "golden grown", BuildDelta(built, grownH))

	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	checkAdjSets(t, "golden loaded", loaded)

	dense := denseBlocks(t, []int{64, 72}, 70, 3, 4)
	if checkAdjSets(t, "dense-block", Build(dense)) == 0 {
		t.Fatal("dense-block: no group earned a window; the bitmap path went untested")
	}
	grownDense, err := hypergraph.Extend(dense, [][]uint32{{0, 1, 2, 500}, {3, 4, 501}})
	if err != nil {
		t.Fatal(err)
	}
	if checkAdjSets(t, "dense-block grown", BuildDelta(Build(dense), grownDense)) == 0 {
		t.Fatal("dense-block grown: no windowed group left")
	}
}

func TestEdgesWithDegree(t *testing.T) {
	h := fig1Hypergraph(t)
	s := Build(h)
	d8 := s.EdgesWithDegree(8)
	if len(d8) != 2 || d8[0] != 2 || d8[1] != 4 {
		t.Fatalf("EdgesWithDegree(8)=%v", d8)
	}
	if got := s.EdgesWithDegree(99); got != nil {
		t.Fatalf("EdgesWithDegree(99)=%v", got)
	}
}

func TestOverheadAccounting(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 500, NumEdges: 800,
		Communities: 25, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 8, EdgeSizeMean: 4, Seed: 9})
	s := Build(h)
	if s.BuildTime() <= 0 {
		t.Fatal("BuildTime not recorded")
	}
	if s.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes not positive")
	}
	if s.Hypergraph() != h {
		t.Fatal("Hypergraph() identity lost")
	}
}

// benchStores are the hypergraphs the set-up benchmarks build stores for: a
// small generated one, the TC preset (mine_sparse's store) and the full-size
// dense block layout (mine_dense's).
func benchStores(b *testing.B) []struct {
	name string
	h    *hypergraph.Hypergraph
} {
	pr, err := gen.PresetByTag("TC")
	if err != nil {
		b.Fatal(err)
	}
	var cores []int
	for c := 64; c <= 256; c += 8 {
		cores = append(cores, c)
	}
	return []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"gen", gen.MustGenerate(gen.Config{Name: "b", NumVertices: 2000, NumEdges: 4000,
			Communities: 80, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 12, EdgeSizeMean: 6, Seed: 11})},
		{"TC", gen.MustGenerate(pr.Config)},
		{"dense-block", denseBlocks(b, cores, 36, 400, 12)},
	}
}

func BenchmarkBuild(b *testing.B) {
	for _, in := range benchStores(b) {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Build(in.h)
			}
		})
	}
}

// BenchmarkLoad times Load of a saved store (the bytes held in memory, so
// the file system is not timed).
func BenchmarkLoad(b *testing.B) {
	for _, in := range benchStores(b) {
		var buf bytes.Buffer
		if err := Build(in.h).Save(&buf); err != nil {
			b.Fatal(err)
		}
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Load(bytes.NewReader(buf.Bytes()), in.h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkConnected(b *testing.B) {
	h := gen.MustGenerate(gen.Config{Name: "b", NumVertices: 2000, NumEdges: 4000,
		Communities: 80, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 12, EdgeSizeMean: 6, Seed: 11})
	s := Build(h)
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]uint32, 1024)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(rng.Intn(h.NumEdges())), uint32(rng.Intn(h.NumEdges()))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		s.Connected(p[0], p[1])
	}
}
