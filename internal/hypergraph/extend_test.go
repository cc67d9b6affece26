package hypergraph

import (
	"fmt"
	"math/rand"
	"reflect"
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

func hypergraphsEqual(t *testing.T, want, got *Hypergraph) {
	t.Helper()
	if !reflect.DeepEqual(want.edgeOff, got.edgeOff) {
		t.Fatalf("edgeOff mismatch:\nwant %v\ngot  %v", want.edgeOff, got.edgeOff)
	}
	if !reflect.DeepEqual(want.edgeVerts, got.edgeVerts) {
		t.Fatalf("edgeVerts mismatch:\nwant %v\ngot  %v", want.edgeVerts, got.edgeVerts)
	}
	if !reflect.DeepEqual(want.vertOff, got.vertOff) {
		t.Fatalf("vertOff mismatch:\nwant %v\ngot  %v", want.vertOff, got.vertOff)
	}
	if !reflect.DeepEqual(want.vertEdges, got.vertEdges) {
		t.Fatalf("vertEdges mismatch:\nwant %v\ngot  %v", want.vertEdges, got.vertEdges)
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

func TestExtendFromNil(t *testing.T) {
	edges := [][]uint32{{0, 1}, {1, 2}}
	// Extending nil needs the vertex universe — which nil cannot carry — so
	// it only succeeds when the edges themselves define it as empty (no
	// edges → ErrEmpty), mirroring Build's contract.
	if _, err := Extend(nil, nil); err != ErrEmpty {
		t.Fatalf("Extend(nil, nil): want ErrEmpty, got %v", err)
	}
	// With a zero-vertex universe every vertex is out of range.
	if _, err := Extend(nil, edges); err == nil {
		t.Fatal("Extend(nil, edges) with no universe should fail")
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
