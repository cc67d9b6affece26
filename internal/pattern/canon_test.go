package pattern

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func mustParse(t *testing.T, lit string) *Pattern {
	t.Helper()
	p, err := Parse(lit)
	if err != nil {
		t.Fatalf("parse %q: %v", lit, err)
	}
	return p
}

// TestCanonicalKeyIsomorphic: every way of writing the same pattern — edge
// order permuted, vertices renamed — canonicalizes to the same key and the
// same canonical pattern; structurally different patterns do not.
func TestCanonicalKeyIsomorphic(t *testing.T) {
	classes := [][]string{
		{"0 1; 1 2", "3 4; 4 5", "1 2; 0 1", "7 0; 0 3"},
		{"0 1 2; 2 3 4; 4 5 0", "4 5 0; 0 1 2; 2 3 4", "10 11 12; 12 13 14; 14 15 10"},
		{"0 1 2 3; 2 3 4 5", "4 5 0 1; 0 1 2 3"},
		{"0 1; 1 2; 2 0", "5 3; 3 4; 4 5"},
	}
	keys := make([]string, len(classes))
	for ci, lits := range classes {
		var canon *Pattern
		for li, lit := range lits {
			p := mustParse(t, lit)
			key, ok := CanonicalKey(p)
			if !ok {
				t.Fatalf("class %d literal %q: canonicalization refused", ci, lit)
			}
			cp, ok := Canonical(p)
			if !ok {
				t.Fatalf("class %d literal %q: Canonical refused", ci, lit)
			}
			if li == 0 {
				keys[ci] = key
				canon = cp
				continue
			}
			if key != keys[ci] {
				t.Errorf("class %d: %q and %q are isomorphic but keys differ", ci, lits[0], lit)
			}
			if cp.String() != canon.String() {
				t.Errorf("class %d: canonical forms differ: %q vs %q", ci, canon, cp)
			}
		}
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[i] == keys[j] {
				t.Errorf("classes %d and %d are not isomorphic but share a key", i, j)
			}
		}
	}
}

// TestCanonicalIdempotent: the canonical form is a fixed point.
func TestCanonicalIdempotent(t *testing.T) {
	for _, lit := range []string{"0 1; 1 2", "0 1 2; 2 3 4; 4 5 0", "0 1; 1 2; 2 3; 3 0"} {
		p := mustParse(t, lit)
		cp, ok := Canonical(p)
		if !ok {
			t.Fatalf("%q: refused", lit)
		}
		cp2, ok := Canonical(cp)
		if !ok || cp2.String() != cp.String() {
			t.Errorf("%q: Canonical not idempotent: %q -> %q", lit, cp, cp2)
		}
		k1, _ := CanonicalKey(p)
		k2, _ := CanonicalKey(cp)
		if k1 != k2 {
			t.Errorf("%q: key changes under canonicalization", lit)
		}
	}
}

// TestCanonicalMatchesShape: for unlabeled patterns the canonical form
// coincides with the ShapeOf realization — the two canonical constructions
// agree, so shape keys and canonical keys induce the same classes.
func TestCanonicalMatchesShape(t *testing.T) {
	shapes, err := EnumerateShapes(3, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shapes {
		p, err := s.Pattern()
		if err != nil {
			t.Fatal(err)
		}
		cp, ok := Canonical(p)
		if !ok {
			t.Fatalf("shape %s: canonicalization refused", s.Key())
		}
		if cp.String() != p.String() {
			t.Errorf("shape %s: canonical %q differs from shape realization %q", s.Key(), cp, p)
		}
	}
}

// TestCanonicalLabeled: vertex labels split isomorphism classes — a
// label-preserving renaming keeps the key, a label change breaks it — and
// full 32-bit labels are distinguished (257 vs 1 differ past the low byte).
func TestCanonicalLabeled(t *testing.T) {
	mk := func(edges [][]uint32, labels []uint32) *Pattern {
		p, err := New(edges, labels)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := mk([][]uint32{{0, 1}, {1, 2}}, []uint32{5, 9, 5})
	b := mk([][]uint32{{2, 1}, {1, 0}}, []uint32{5, 9, 5})   // renamed, same labeling
	c := mk([][]uint32{{0, 1}, {1, 2}}, []uint32{5, 9, 261}) // 261 = 5+256
	ka, ok := CanonicalKey(a)
	if !ok {
		t.Fatal("labeled canonicalization refused")
	}
	kb, _ := CanonicalKey(b)
	kc, _ := CanonicalKey(c)
	if ka != kb {
		t.Error("label-preserving isomorphs got different keys")
	}
	if ka == kc {
		t.Error("labels 5 and 261 collided on the canonical key")
	}

	el1, err := NewEdgeLabeled([][]uint32{{0, 1}, {1, 2}}, nil, []uint32{7, 3})
	if err != nil {
		t.Fatal(err)
	}
	el2, err := NewEdgeLabeled([][]uint32{{1, 2}, {0, 1}}, nil, []uint32{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	k1, ok := CanonicalKey(el1)
	if !ok {
		t.Fatal("edge-labeled canonicalization refused")
	}
	k2, _ := CanonicalKey(el2)
	if k1 != k2 {
		t.Error("edge-label-preserving permutation got different keys")
	}
}

// TestCanonicalManyEdges: patterns of 7 to 14 hyperedges — far past where
// K! orders could be rendered — canonicalize; a scrambled copy gets the same
// key and representative, and no two of the non-isomorphic families share a
// key.
func TestCanonicalManyEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	owner := map[string]string{}
	for k := 7; k <= 14; k++ {
		families := map[string][][]uint32{}
		var path, cycle, petals, twoOrbit [][]uint32
		for i := 0; i < k; i++ {
			path = append(path, []uint32{uint32(i), uint32(i + 1)})
			cycle = append(cycle, []uint32{uint32(i), uint32((i + 1) % k)})
			petals = append(petals, []uint32{0, uint32(1 + i)})
			if i%2 == 0 {
				twoOrbit = append(twoOrbit, []uint32{0, uint32(1 + 2*i)})
			} else {
				twoOrbit = append(twoOrbit, []uint32{0, uint32(1 + 2*i), uint32(2 + 2*i)})
			}
		}
		families["path"], families["cycle"], families["sunflower"], families["two-orbit"] = path, cycle, petals, twoOrbit
		for name, edges := range families {
			what := fmt.Sprintf("%d-edge %s", k, name)
			p, err := New(edges, nil)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			key, ok := CanonicalKey(p)
			if !ok {
				t.Fatalf("%s: refused", what)
			}
			if prev, dup := owner[key]; dup {
				t.Fatalf("%s and %s share a key", prev, what)
			}
			owner[key] = what
			cp, _ := Canonical(p)
			q := scramble(t, p, rng)
			if qk, _ := CanonicalKey(q); qk != key {
				t.Fatalf("%s: a scramble got another key", what)
			}
			if cq, _ := Canonical(q); !reflect.DeepEqual(cq.Edges(), cp.Edges()) {
				t.Fatalf("%s: scramble's representative %q, want %q", what, cq, cp)
			}
		}
	}
}

// TestSymmetryRestrictions: the stabilizer chain on concrete patterns. The
// chain2 pattern (Aut=2, swap) breaks with c0<c1; the triangle of pairwise
// overlapping 2-edges (Aut=6, full S3) chains c0<c1<c2; an asymmetric chain
// emits nothing.
func TestSymmetryRestrictions(t *testing.T) {
	cases := []struct {
		lit  string
		want [][]int
	}{
		{"0 1; 1 2", [][]int{nil, {0}}},
		{"0 1; 1 2; 2 0", [][]int{nil, {0}, {0, 1}}},
		{"0 1 2; 2 3; 3 4", [][]int{nil, nil, nil}},
	}
	for _, tc := range cases {
		p := mustParse(t, tc.lit)
		got := p.SymmetryRestrictions()
		if len(got) != len(tc.want) {
			t.Fatalf("%q: %d positions, want %d", tc.lit, len(got), len(tc.want))
		}
		for i := range got {
			if len(got[i]) == 0 && len(tc.want[i]) == 0 {
				continue
			}
			if !reflect.DeepEqual(got[i], tc.want[i]) {
				t.Errorf("%q position %d: restrictions %v, want %v", tc.lit, i, got[i], tc.want[i])
			}
		}
	}
}
