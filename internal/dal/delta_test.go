package dal

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ohminer/internal/hypergraph"
)

// randomUniqueEdges returns n distinct normalized hyperedges over [0, nv).
func randomUniqueEdges(rng *rand.Rand, nv, n int) [][]uint32 {
	seen := map[string]bool{}
	var out [][]uint32
	for len(out) < n {
		k := 1 + rng.Intn(4)
		set := map[uint32]bool{}
		for len(set) < k {
			set[uint32(rng.Intn(nv))] = true
		}
		e := make([]uint32, 0, k)
		for v := range set {
			e = append(e, v)
		}
		for i := 1; i < len(e); i++ {
			for j := i; j > 0 && e[j-1] > e[j]; j-- {
				e[j-1], e[j] = e[j], e[j-1]
			}
		}
		key := fmt.Sprint(e)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, e)
	}
	return out
}

// storesEqual compares every derived array of two stores. BuildDelta's
// contract is bit-identical state, not just equivalent answers, so the
// comparison is white-box; buildTime is the one field allowed to differ.
func storesEqual(t *testing.T, want, got *Store) {
	t.Helper()
	check := func(name string, w, g []uint32) {
		t.Helper()
		if len(w) != len(g) {
			t.Fatalf("%s length: want %d got %d", name, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("%s[%d]: want %d got %d", name, i, w[i], g[i])
			}
		}
	}
	check("adjOff", want.adjOff, got.adjOff)
	check("adj", want.adj, got.adj)
	check("grpOff", want.grpOff, got.grpOff)
	check("grpDeg", want.grpDeg, got.grpDeg)
	check("grpOvl", want.grpOvl, got.grpOvl)
	check("grpStart", want.grpStart, got.grpStart)
	check("degList", want.degList, got.degList)
	check("degOff", want.degOff, got.degOff)
	check("degEdges", want.degEdges, got.degEdges)
	check("grpWinOff", want.grpWinOff, got.grpWinOff)
	check("grpWinBase", want.grpWinBase, got.grpWinBase)
	check("evOff", want.evOff, got.evOff)
	check("evBase", want.evBase, got.evBase)
	if len(want.winWords) != len(got.winWords) {
		t.Fatalf("winWords length: want %d got %d", len(want.winWords), len(got.winWords))
	}
	for i := range want.winWords {
		if want.winWords[i] != got.winWords[i] {
			t.Fatalf("winWords[%d]: want %#x got %#x", i, want.winWords[i], got.winWords[i])
		}
	}
	if len(want.evWords) != len(got.evWords) {
		t.Fatalf("evWords length: want %d got %d", len(want.evWords), len(got.evWords))
	}
	for i := range want.evWords {
		if want.evWords[i] != got.evWords[i] {
			t.Fatalf("evWords[%d]: want %#x got %#x", i, want.evWords[i], got.evWords[i])
		}
	}
}

// TestBuildDeltaEqualsBuild: growing a store incrementally — in one batch or
// edge by edge — lands on exactly the state a from-scratch Build produces.
func TestBuildDeltaEqualsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		nv := 6 + rng.Intn(24)
		n := 2 + rng.Intn(40)
		edges := randomUniqueEdges(rng, nv, n)
		cut := 1 + rng.Intn(n-1)

		fullH, err := hypergraph.Build(nv, edges, nil)
		if err != nil {
			t.Fatal(err)
		}
		full := Build(fullH)

		baseH, err := hypergraph.Build(nv, edges[:cut], nil)
		if err != nil {
			t.Fatal(err)
		}
		extH, err := hypergraph.Extend(baseH, edges[cut:])
		if err != nil {
			t.Fatal(err)
		}
		delta := BuildDelta(Build(baseH), extH)
		storesEqual(t, full, delta)

		// Edge-at-a-time growth.
		h := baseH
		st := Build(baseH)
		for i := cut; i < n; i++ {
			h, err = hypergraph.Extend(h, edges[i:i+1])
			if err != nil {
				t.Fatal(err)
			}
			st = BuildDelta(st, h)
		}
		storesEqual(t, full, st)
	}
}

// TestBuildDeltaBatches grows stores over several retire-free batches — the
// streaming path — on inputs whose overlap sizes vary and whose groups carry
// bitmap windows: after every batch the store equals Build on the hypergraph
// so far, overlap keys, group order and window arena included.
func TestBuildDeltaBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inputs := map[string][][]uint32{}
	for trial := 0; trial < 8; trial++ {
		seen := map[string]bool{}
		var edges [][]uint32
		for len(edges) < 120 {
			set := map[uint32]bool{}
			for k := 1 + rng.Intn(9); len(set) < k; {
				set[uint32(rng.Intn(24))] = true
			}
			e := make([]uint32, 0, len(set))
			for v := range set {
				e = append(e, v)
			}
			slices.Sort(e)
			if key := fmt.Sprint(e); !seen[key] {
				seen[key] = true
				edges = append(edges, e)
			}
		}
		inputs[fmt.Sprintf("random-%d", trial)] = edges
	}
	dense := denseBlocks(t, []int{64, 80}, 70, 2, 3)
	var blocks [][]uint32
	for _, e := range rng.Perm(dense.NumEdges()) {
		blocks = append(blocks, dense.EdgeVertices(uint32(e)))
	}
	inputs["dense-block"] = blocks

	// Inputs run in name order and each takes exactly `batches` batches of
	// 1..len/4 edges, so the subtest names are the same on every run.
	const batches = 10
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		edges := inputs[name]
		nv := 0
		for _, e := range edges {
			nv = max(nv, int(e[len(e)-1])+1)
		}
		cut := 1 + rng.Intn(10)
		h, err := hypergraph.Build(nv, edges[:cut], nil)
		if err != nil {
			t.Fatal(err)
		}
		st := Build(h)
		// The batch ends are distinct cuts after the first one, redrawn until
		// no batch is larger than len/4.
		var ends []int
		for bounded := false; !bounded; {
			ends = rng.Perm(len(edges) - cut - 1)[:batches-1]
			for i := range ends {
				ends[i] += cut + 1
			}
			ends = append(ends, len(edges))
			slices.Sort(ends)
			bounded = true
			for i, start := range append([]int{cut}, ends[:batches-1]...) {
				bounded = bounded && ends[i]-start <= len(edges)/4
			}
		}
		for batch, next := range ends {
			if h, err = hypergraph.Extend(h, edges[cut:next]); err != nil {
				t.Fatal(err)
			}
			st = BuildDelta(st, h)
			cut = next
			t.Run(fmt.Sprintf("%s/batch%d", name, batch), func(t *testing.T) { storesEqual(t, Build(h), st) })
		}
		if name == "dense-block" && st.grpWinOff == nil {
			t.Fatal("dense-block: no windowed group; the arena-copy path went untested")
		}
	}
}

// TestBuildDeltaPreservesPrev: the previous store must stay fully usable
// after a delta build (streaming readers may still be mining it).
func TestBuildDeltaPreservesPrev(t *testing.T) {
	baseH := hypergraph.MustBuild(8, [][]uint32{{0, 1, 2}, {2, 3}, {4, 5}}, nil)
	prev := Build(baseH)
	wantAdj := append([]uint32(nil), prev.Adj(1)...)
	wantMem := prev.MemoryBytes()

	extH, err := hypergraph.Extend(baseH, [][]uint32{{1, 3, 6}, {5, 7}})
	if err != nil {
		t.Fatal(err)
	}
	next := BuildDelta(prev, extH)
	if next.Hypergraph().NumEdges() != 5 {
		t.Fatalf("next edges = %d", next.Hypergraph().NumEdges())
	}
	if !reflect.DeepEqual(append([]uint32(nil), prev.Adj(1)...), wantAdj) {
		t.Fatal("BuildDelta mutated prev's adjacency")
	}
	if prev.MemoryBytes() != wantMem {
		t.Fatal("BuildDelta changed prev's footprint")
	}
	// Edge 1 ({2,3}) gained neighbor 3 ({1,3,6}): verify through the public
	// accessors of the new store.
	if !next.Connected(1, 3) || next.Connected(1, 4) {
		t.Fatal("connectivity wrong after delta build")
	}
	// No new edges: BuildDelta is an identity.
	if got := BuildDelta(next, extH); got != next {
		t.Fatal("no-op BuildDelta should return prev")
	}
	// Nil prev falls back to full build.
	storesEqual(t, Build(extH), BuildDelta(nil, extH))
}
