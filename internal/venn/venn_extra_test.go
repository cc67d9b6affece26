package venn

import (
	"strings"
	"testing"

	"ohminer/internal/sig"
)

func TestIsomorphicErrorPaths(t *testing.T) {
	bad := [][]uint32{{2, 1}} // unsorted
	good := [][]uint32{{1, 2}}
	if _, err := Isomorphic(bad, good); err == nil {
		t.Error("unsorted first operand accepted")
	}
	if _, err := Isomorphic(good, bad); err == nil {
		t.Error("unsorted second operand accepted")
	}
	if _, err := Regions(bad); err == nil {
		t.Error("Regions accepted unsorted input")
	}
	// Oversized patterns are rejected through sig.MaxEdges.
	big := make([][]uint32, sig.MaxEdges+1)
	for i := range big {
		big[i] = []uint32{0}
	}
	if _, err := Isomorphic(big, big); err == nil {
		t.Error("oversized pattern accepted")
	}
}

func TestCheckTheorem1Mismatch(t *testing.T) {
	a := [][]uint32{{0, 1}, {1, 2}}
	b := [][]uint32{{0, 1}, {2, 3}} // disconnected pair: different signature
	iso, err := CheckTheorem1(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if iso {
		t.Fatal("non-isomorphic pair accepted")
	}
}

func TestRegionExprSingleSet(t *testing.T) {
	r := Region{Mask: 0b1}
	if got := r.Expr(1); got != "A1" {
		t.Fatalf("Expr=%q", got)
	}
	two := Region{Mask: 0b1}
	if got := two.Expr(2); !strings.Contains(got, "\\") {
		t.Fatalf("Expr=%q should subtract A2", got)
	}
}
