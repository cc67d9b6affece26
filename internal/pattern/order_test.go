package pattern_test

import (
	"bufio"
	"os"
	"slices"
	"testing"

	"ohminer/internal/dal"
	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// Every plan is compiled in the matching order oig.ChooseOrder picks; these
// tests check, on the pattern side, that such an order is one Reorder accepts
// and that it never leaves the connected prefix.

// uniformStats prices every degree alike: N hyperedges, groups of 8.
type uniformStats struct{}

func (uniformStats) NumEdgesWithDegree(int) int  { return 256 }
func (uniformStats) GroupSum(_, _, _ int) uint64 { return 256 * 8 }

func orderGraph() *hypergraph.Hypergraph {
	return gen.MustGenerate(gen.Config{Name: "t", NumVertices: 120, NumEdges: 300,
		Communities: 8, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 8, EdgeSizeMean: 4, Seed: 21})
}

// checkConnected fails unless order is a permutation of p's hyperedges in
// which every position overlaps one before it, and p reordered by it keeps
// its shape.
func checkConnected(t *testing.T, p *pattern.Pattern, order []int) {
	t.Helper()
	rp, err := p.Reorder(order)
	if err != nil {
		t.Fatalf("%s in %v: %v", p, order, err)
	}
	if rp.NumEdges() != p.NumEdges() || rp.NumVertices() != p.NumVertices() {
		t.Fatalf("%s: Reorder(%v) changed shape", p, order)
	}
	for i := 1; i < len(order); i++ {
		if !slices.ContainsFunc(order[:i], func(o int) bool { return p.Signature().Size(1<<o|1<<order[i]) > 0 }) {
			t.Fatalf("%s: matching order %v breaks connectivity at %d", p, order, i)
		}
	}
}

// TestMatchingOrderProperties: on sampled patterns, the order chosen on a
// store and the order oig.Compile chooses without one are connected
// permutations.
func TestMatchingOrderProperties(t *testing.T) {
	rng := pattern.NewRand(4)
	h := orderGraph()
	st := dal.Build(h)
	for trial := 0; trial < 30; trial++ {
		p, err := pattern.Sample(h, 2+rng.Intn(4), 2, 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		checkConnected(t, p, oig.ChooseOrder(st, p, -1))
		plan, err := oig.Compile(p, oig.ModeMerged)
		if err != nil {
			t.Fatal(err)
		}
		checkConnected(t, p, plan.Order)
	}
}

// TestMatchingOrderFrom: over the golden file's patterns, on a store and on
// uniform statistics, the order chosen with position 0 fixed at each
// hyperedge starts there and is a connected permutation.
func TestMatchingOrderFrom(t *testing.T) {
	f, err := os.Open("testdata/matching_orders.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var pats []*pattern.Pattern
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		p, err := pattern.Parse(sc.Text())
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, st := range []oig.Stats{dal.Build(orderGraph()), uniformStats{}} {
		for _, p := range pats {
			for a := 0; a < p.NumEdges(); a++ {
				order := oig.ChooseOrder(st, p, a)
				if order[0] != a {
					t.Fatalf("%s: order %v does not start at %d", p, order, a)
				}
				checkConnected(t, p, order)
			}
		}
	}
}
