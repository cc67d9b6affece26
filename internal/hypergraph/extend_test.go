package hypergraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// randomUniqueEdges returns n distinct normalized (sorted, deduped)
// hyperedges over [0, nv).
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

// hypergraphsEqual compares what the two hypergraphs read: the edge CSR
// table for table (Extend appends to it as Build writes it), and every
// vertex's incident-edge list, wherever in its arena the list lies.
func hypergraphsEqual(t *testing.T, want, got *Hypergraph) {
	t.Helper()
	if !reflect.DeepEqual(want.edgeOff, got.edgeOff) {
		t.Fatalf("edgeOff mismatch:\nwant %v\ngot  %v", want.edgeOff, got.edgeOff)
	}
	if !reflect.DeepEqual(want.edgeVerts, got.edgeVerts) {
		t.Fatalf("edgeVerts mismatch:\nwant %v\ngot  %v", want.edgeVerts, got.edgeVerts)
	}
	if want.NumVertices() != got.NumVertices() {
		t.Fatalf("NumVertices: want %d got %d", want.NumVertices(), got.NumVertices())
	}
	for v := uint32(0); v < uint32(want.NumVertices()); v++ {
		if !slices.Equal(want.VertexEdges(v), got.VertexEdges(v)) || want.VertexDegree(v) != got.VertexDegree(v) {
			t.Fatalf("vertex %d: want %v got %v", v, want.VertexEdges(v), got.VertexEdges(v))
		}
	}
	if want.Fingerprint() != got.Fingerprint() {
		t.Fatalf("fingerprint: want %#x got %#x", want.Fingerprint(), got.Fingerprint())
	}
}

// TestExtendEqualsBuild: extending a built hypergraph by a batch produces the
// same CSR state as building the concatenated edge list from scratch, across
// random splits — the invariant the streaming subsystem's incremental apply
// rests on.
func TestExtendEqualsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nv := 6 + rng.Intn(20)
		n := 2 + rng.Intn(30)
		edges := randomUniqueEdges(rng, nv, n)
		cut := 1 + rng.Intn(n-1)

		full, err := Build(nv, edges, nil)
		if err != nil {
			t.Fatalf("full build: %v", err)
		}
		base, err := Build(nv, edges[:cut], nil)
		if err != nil {
			t.Fatalf("base build: %v", err)
		}
		ext, err := Extend(base, edges[cut:])
		if err != nil {
			t.Fatalf("extend: %v", err)
		}
		hypergraphsEqual(t, full, ext)

		// Multi-step extension must agree too.
		step := base
		for i := cut; i < n; i++ {
			step, err = Extend(step, edges[i:i+1])
			if err != nil {
				t.Fatalf("extend step %d: %v", i, err)
			}
		}
		hypergraphsEqual(t, full, step)
	}
}

// TestExtendFromNil: a nil hypergraph has no vertex universe to extend, so
// Extend refuses it with ErrEmpty, with or without edges.
func TestExtendFromNil(t *testing.T) {
	for _, edges := range [][][]uint32{nil, {{0, 1}, {1, 2}}} {
		if _, err := Extend(nil, edges); err != ErrEmpty {
			t.Fatalf("Extend(nil, %v): want ErrEmpty, got %v", edges, err)
		}
	}
}

func TestExtendPreservesOriginal(t *testing.T) {
	base, err := Build(5, [][]uint32{{0, 1}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantEdges, wantIncid := base.NumEdges(), base.VertexDegree(1)
	ext, err := Extend(base, [][]uint32{{1, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if base.NumEdges() != wantEdges || base.VertexDegree(1) != wantIncid {
		t.Fatal("Extend mutated its input")
	}
	if ext.NumEdges() != 3 || ext.VertexDegree(1) != 3 {
		t.Fatalf("extended shape wrong: edges=%d deg(1)=%d", ext.NumEdges(), ext.VertexDegree(1))
	}
	// No-op extension returns the input unchanged.
	same, err := Extend(base, nil)
	if err != nil || same != base {
		t.Fatalf("empty extend: got %p want %p (err %v)", same, base, err)
	}
}

func TestExtendRejectsBadEdges(t *testing.T) {
	base, err := Build(4, [][]uint32{{0, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][][]uint32{
		{{}},          // empty edge
		{{2, 1}},      // unsorted
		{{1, 1}},      // duplicate vertex
		{{3, 4}},      // vertex out of range
		{{0, 2}, {5}}, // later edge bad
	}
	for i, batch := range cases {
		if _, err := Extend(base, batch); err == nil {
			t.Fatalf("case %d: expected error for %v", i, batch)
		}
	}

	labeled, err := BuildEdgeLabeled(4, [][]uint32{{0, 1}, {1, 2}}, nil, []uint32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Extend(labeled, [][]uint32{{0, 2}}); err != ErrExtendLabeled {
		t.Fatalf("want ErrExtendLabeled, got %v", err)
	}
}

// TestFingerprintMemo: the fingerprint is computed once per hypergraph —
// concurrent first calls agree with each other and with a fresh build of the
// same content — and an Extend result does not inherit its base's memo.
func TestFingerprintMemo(t *testing.T) {
	edges := [][]uint32{{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}}
	h := MustBuild(6, edges, nil)
	got := make([]uint64, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() { defer wg.Done(); got[i] = h.Fingerprint() }()
	}
	wg.Wait()
	want := MustBuild(6, edges, nil).Fingerprint()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("concurrent call %d: fingerprint %#x, want %#x", i, fp, want)
		}
	}
	if again := h.Fingerprint(); again != want {
		t.Fatalf("memoised fingerprint %#x, want %#x", again, want)
	}

	ext, err := Extend(h, [][]uint32{{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if ext.Fingerprint() == want {
		t.Fatal("extended hypergraph reports its base's fingerprint")
	}
	rebuilt := MustBuild(6, append(append([][]uint32(nil), edges...), []uint32{1, 4}), nil)
	if ext.Fingerprint() != rebuilt.Fingerprint() {
		t.Fatalf("extended fingerprint %#x differs from a build of the same edges %#x", ext.Fingerprint(), rebuilt.Fingerprint())
	}
	if h.Fingerprint() != want {
		t.Fatal("extending changed the base's fingerprint")
	}
}

// TestExtendForks: one hypergraph extended twice with different batches —
// the first Extend writes into the spare capacity of its arenas, the second
// must copy them — gives two results that each equal Build of their own
// edges, and the base reads exactly as before. The base is itself an Extend
// result, so its arenas have spare capacity to share.
func TestExtendForks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		nv := 6 + rng.Intn(20)
		edges := randomUniqueEdges(rng, nv, 8+rng.Intn(30))
		cut := 1 + rng.Intn(len(edges)-4)
		mid := cut + 1 + rng.Intn(len(edges)-cut-2)
		prev := MustBuild(nv, edges[:1], nil)
		var err error
		if prev, err = Extend(prev, edges[1:cut]); err != nil && cut > 1 {
			t.Fatal(err)
		}
		var before [][]uint32
		for v := uint32(0); v < uint32(nv); v++ {
			before = append(before, slices.Clone(prev.VertexEdges(v)))
		}
		fp := MustBuild(nv, edges[:cut], nil).Fingerprint()

		a, err := Extend(prev, edges[cut:mid])
		if err != nil {
			t.Fatal(err)
		}
		b, err := Extend(prev, edges[mid:])
		if err != nil {
			t.Fatal(err)
		}
		hypergraphsEqual(t, MustBuild(nv, edges[:mid], nil), a)
		hypergraphsEqual(t, MustBuild(nv, append(slices.Clone(edges[:cut]), edges[mid:]...), nil), b)
		for v := uint32(0); v < uint32(nv); v++ {
			if !slices.Equal(prev.VertexEdges(v), before[v]) {
				t.Fatalf("trial %d: base's vertex %d reads %v after the forks, %v before", trial, v, prev.VertexEdges(v), before[v])
			}
		}
		if prev.NumEdges() != cut || prev.Fingerprint() != fp {
			t.Fatalf("trial %d: base changed: %d edges, fingerprint %#x want %#x", trial, prev.NumEdges(), prev.Fingerprint(), fp)
		}
	}
}

// TestExtendWorkFollowsTheBatch: the arena entries a 60-edge batch writes
// or copies — vertex lists and edge lists — do not depend on the
// hypergraph's size: at 2 400 and at 38 400 hyperedges of the same local
// density (the stream benchmark's pairs {v, v+1..6}, a quarter of them
// triples, over 0.75·n vertices) they agree within 1.3×, summed over eight
// batches. The measured batch is the second one: the first moves Build's
// exact-length arenas to larger ones, the second must fit in place.
func TestExtendWorkFollowsTheBatch(t *testing.T) {
	// work counts the entries growing prev into next wrote or copied: the
	// appended ones when next extends prev's array in place, else all.
	work := func(prev, next []uint32) int {
		if len(prev) > 0 && len(next) >= len(prev) && &next[0] == &prev[0] {
			return len(next) - len(prev)
		}
		return len(next)
	}
	total := func(n int) (sum int) {
		nv := n * 3 / 4
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			seen := map[string]bool{}
			fresh := func(c int) [][]uint32 {
				var out [][]uint32
				for len(out) < c {
					v := uint32(rng.Intn(nv - 16))
					e := []uint32{v, v + 1 + uint32(rng.Intn(6))}
					if rng.Intn(4) == 0 {
						e = append(e, e[1]+1+uint32(rng.Intn(4)))
					}
					if key := fmt.Sprint(e); !seen[key] {
						seen[key] = true
						out = append(out, e)
					}
				}
				return out
			}
			h1, err := Extend(MustBuild(nv, fresh(n), nil), fresh(60))
			if err != nil {
				t.Fatal(err)
			}
			h2, err := Extend(h1, fresh(60))
			if err != nil {
				t.Fatal(err)
			}
			sum += work(h1.vertEdges, h2.vertEdges) + work(h1.edgeVerts, h2.edgeVerts) + work(h1.edgeOff, h2.edgeOff)
		}
		return sum
	}
	small, large := total(2400), total(38400)
	t.Logf("arena entries written or copied by eight 60-edge batches: %d at |E| = 2400, %d at |E| = 38400", small, large)
	if r := float64(max(small, large)) / float64(min(small, large)); r > 1.3 {
		t.Fatalf("batch work differs %.2f× between |E| = 2400 and 38400 (%d vs %d)", r, small, large)
	}
}
