package oig

import (
	"bufio"
	"os"
	"slices"
	"testing"

	"ohminer/internal/pattern"
)

// goldenPatterns reads the pattern list of the matching-order golden file:
// every shape of 2..4 hyperedges in its canonical and in its reversed
// numbering, and a few hundred patterns of 2..6 hyperedges sampled from a
// generated hypergraph.
func goldenPatterns(tb testing.TB) []string {
	tb.Helper()
	f, err := os.Open("../pattern/testdata/matching_orders.golden")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var lits []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lits = append(lits, sc.Text())
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return lits
}

// checkOrder fails unless order is a permutation of p's hyperedges that
// starts at first (when first ≥ 0) and in which every position overlaps one
// before it.
func checkOrder(tb testing.TB, p *pattern.Pattern, order []int, first int) {
	tb.Helper()
	if _, err := p.Reorder(order); err != nil {
		tb.Fatalf("%s from %d: %v", p, first, err)
	}
	if first >= 0 && order[0] != first {
		tb.Fatalf("%s: order %v does not start at %d", p, order, first)
	}
	for t := 1; t < len(order); t++ {
		if !slices.ContainsFunc(order[:t], func(y int) bool { return p.Signature().Size(1<<y|1<<order[t]) > 0 }) {
			tb.Fatalf("%s from %d: position %d of %v overlaps nothing before it", p, first, t, order)
		}
	}
}

// TestCompileOrdersOnFlatStats: without an order, Compile compiles every
// golden pattern in the connected order ChooseOrder picks on flat
// statistics. (pattern's TestMatchingOrderFrom checks ChooseOrder with every
// first, on a store.)
func TestCompileOrdersOnFlatStats(t *testing.T) {
	for _, lit := range goldenPatterns(t) {
		p, err := pattern.Parse(lit)
		if err != nil {
			t.Fatal(err)
		}
		order := ChooseOrder(flatStats{}, p, -1)
		checkOrder(t, p, order, -1)
		plan, err := Compile(p, ModeMerged)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(plan.Order, order) {
			t.Fatalf("%s: Compile ordered %v, ChooseOrder on flat statistics %v", p, plan.Order, order)
		}
	}
}

// FuzzChooseOrder: for any pattern literal, on flat statistics, with position
// 0 free and fixed at every hyperedge, ChooseOrder returns a connected
// permutation that starts where it is told to, and the plan compiled in it
// passes VerifyProgram.
func FuzzChooseOrder(f *testing.F) {
	for _, lit := range goldenPatterns(f) {
		f.Add(lit)
	}
	f.Fuzz(func(t *testing.T, lit string) {
		if len(lit) > 1024 {
			return // bound pattern vertex universes
		}
		p, err := pattern.Parse(lit)
		if err != nil || p.NumEdges() > 8 {
			return // past the greedy threshold, yet cheap to compile per first
		}
		for first := -1; first < p.NumEdges(); first++ {
			order := ChooseOrder(flatStats{}, p, first)
			checkOrder(t, p, order, first)
			plan, err := CompileOrdered(p, ModeMerged, order)
			if err != nil {
				t.Fatalf("%s in %v: %v", p, order, err)
			}
			if err := VerifyProgram(plan); err != nil {
				t.Fatalf("%s in %v: %v\n%s", p, order, err, plan)
			}
		}
	})
}
