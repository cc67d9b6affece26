package dal

import (
	"bytes"
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

// storesEqual compares what every hyperedge of two stores reads, wherever
// it lies in the arenas: its segment, its groups' keys and their offsets
// inside the segment, each group's window, its vertex set's window; then
// the degree index, the live counts, and the bytes Save writes. buildTime is
// the one field allowed to differ.
func storesEqual(t *testing.T, want, got *Store) {
	t.Helper()
	m := want.h.NumEdges()
	if got.h.NumEdges() != m || len(want.spans) != m || len(got.spans) != m {
		t.Fatalf("hyperedges: want %d got %d (spans %d, %d)", m, got.h.NumEdges(), len(want.spans), len(got.spans))
	}
	if want.adjLive != got.adjLive || want.grpLive != got.grpLive {
		t.Fatalf("live entries: want %d/%d got %d/%d", want.adjLive, want.grpLive, got.adjLive, got.grpLive)
	}
	for e := uint32(0); e < uint32(m); e++ {
		ws, gs := want.spans[e], got.spans[e]
		if !slices.Equal(want.Adj(e), got.Adj(e)) {
			t.Fatalf("Adj(%d): want %v got %v", e, want.Adj(e), got.Adj(e))
		}
		if ws.grpHi-ws.grpLo != gs.grpHi-gs.grpLo {
			t.Fatalf("hyperedge %d: want %d groups got %d", e, ws.grpHi-ws.grpLo, gs.grpHi-gs.grpLo)
		}
		for i := uint32(0); i < ws.grpHi-ws.grpLo; i++ {
			wk, gk := ws.grpLo+i, gs.grpLo+i
			if want.grpDeg[wk] != got.grpDeg[gk] || want.grpOvl[wk] != got.grpOvl[gk] || want.grpStart[wk]-ws.adjLo != got.grpStart[gk]-gs.adjLo {
				t.Fatalf("hyperedge %d group %d: want (%d, %d) at %d got (%d, %d) at %d", e, i,
					want.grpDeg[wk], want.grpOvl[wk], want.grpStart[wk]-ws.adjLo, got.grpDeg[gk], got.grpOvl[gk], got.grpStart[gk]-gs.adjLo)
			}
			wlo, whi := want.groupWindow(wk)
			glo, ghi := got.groupWindow(gk)
			if !slices.Equal(want.winWords[wlo:whi], got.winWords[glo:ghi]) || whi > wlo && want.grpWinBase[wk] != got.grpWinBase[gk] {
				t.Fatalf("hyperedge %d group %d: window differs", e, i)
			}
		}
		if !slices.Equal(want.evWords[want.evOff[e]:want.evOff[e+1]], got.evWords[got.evOff[e]:got.evOff[e+1]]) || want.evBase[e] != got.evBase[e] {
			t.Fatalf("hyperedge %d: vertex-set window differs", e)
		}
	}
	if len(want.evOff) != m+1 || len(got.evOff) != m+1 {
		t.Fatalf("vertex-set windows: want %d got %d, for %d hyperedges", len(want.evOff)-1, len(got.evOff)-1, m)
	}
	if !slices.Equal(want.degList, got.degList) || len(want.degEdges) != len(got.degEdges) {
		t.Fatalf("degList: want %v got %v", want.degList, got.degList)
	}
	for k := range want.degEdges {
		if !slices.Equal(want.degEdges[k], got.degEdges[k]) {
			t.Fatalf("degEdges[%d] (degree %d): want %v got %v", k, want.degList[k], want.degEdges[k], got.degEdges[k])
		}
	}
	var wb, gb bytes.Buffer
	if err := want.Save(&wb); err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatal("saved bytes differ")
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
}
