package pattern

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ohminer/internal/gen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/matching_orders.golden")

// orderCorpus is the input of the matching-order golden test: every
// enumerated shape of 2..4 hyperedges in its canonical and in its reversed
// hyperedge numbering (ties are broken by index, so the numbering matters),
// plus a few hundred patterns sampled from a generated hypergraph.
func orderCorpus(t *testing.T) []*Pattern {
	t.Helper()
	var out []*Pattern
	for k := 2; k <= 4; k++ {
		shapes, err := EnumerateShapes(k, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range shapes {
			p, err := s.Pattern()
			if err != nil {
				t.Fatal(err)
			}
			rev := make([]int, k)
			for i := range rev {
				rev[i] = k - 1 - i
			}
			rp, err := p.Reorder(rev)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p, rp)
		}
	}
	h := gen.MustGenerate(gen.Config{Name: "order", NumVertices: 160, NumEdges: 500,
		Communities: 8, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 8, EdgeSizeMean: 4, Seed: 11})
	rng := NewRand(23)
	for i := 0; i < 400; i++ {
		p, err := Sample(h, 2+i%5, 2, 40, rng)
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	return out
}

// TestMatchingOrderGolden pins MatchingOrder, and greedyOrder under an
// external rank (selectivityOrder), to the orders they returned before they
// were folded onto greedyOrder (the golden file was written by two separate
// loops): store-less plans and the stream's anchor-first orders use them, so
// a tie-break drifting is a silent regression.
func TestMatchingOrderGolden(t *testing.T) {
	rng := NewRand(5)
	var got bytes.Buffer
	for _, p := range orderCorpus(t) {
		// Small selectivities, so that ties on sel are common.
		sel := make([]int, p.NumEdges())
		for i := range sel {
			sel[i] = 1 + rng.Intn(3)
		}
		fmt.Fprintf(&got, "%s | %v | sel %v %v\n", p, p.MatchingOrder(), sel, selectivityOrder(p, sel))
	}
	path := filepath.Join("testdata", "matching_orders.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range gl {
			if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("matching order drifted at line %d:\n got  %s\n want %s", i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
	}
}

// selectivityOrder starts from the hyperedge with the smallest sel (tie:
// larger degree) and extends greedily, ties broken by smaller sel, then by
// smaller index — the greedy loop under a rank other than the degree.
func selectivityOrder(p *Pattern, sel []int) []int {
	best := 0
	for i := 1; i < p.NumEdges(); i++ {
		if sel[i] < sel[best] || (sel[i] == sel[best] && p.Degree(i) > p.Degree(best)) {
			best = i
		}
	}
	return greedyOrder(p.adjacency(), best, func(j int) int { return -sel[j] })
}

// TestMatchingOrderFrom: the forced first hyperedge leads, the result is a
// permutation, and every later position shares a vertex with its prefix.
func TestMatchingOrderFrom(t *testing.T) {
	for _, p := range orderCorpus(t) {
		conn := p.adjacency()
		for a := 0; a < p.NumEdges(); a++ {
			order := p.MatchingOrderFrom(a)
			if order[0] != a {
				t.Fatalf("%s: order %v does not start at %d", p, order, a)
			}
			if _, err := p.Reorder(order); err != nil {
				t.Fatalf("%s from %d: %v", p, a, err)
			}
			for i := 1; i < len(order); i++ {
				linked := false
				for _, o := range order[:i] {
					linked = linked || conn[o][order[i]]
				}
				if !linked {
					t.Fatalf("%s from %d: position %d of %v is not connected to its prefix", p, a, i, order)
				}
			}
		}
	}
}
