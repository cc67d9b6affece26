package engine

import (
	"bufio"
	"context"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"ohminer/internal/bruteforce"
	"ohminer/internal/dal"
	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// TestDataAwareOrderCorrectness: the order CompilePlan chooses by cost on the
// store changes how fast a pattern is mined, never what it counts — on random
// stores its plans count what every other connected order and brute force
// count.
func TestDataAwareOrderCorrectness(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		h := gen.MustGenerate(gen.Config{Name: "o", NumVertices: 60, NumEdges: 150,
			Communities: 4, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 6, EdgeSizeMean: 3.5, Seed: 101 + seed})
		store := dal.Build(h)
		rng := rand.New(rand.NewSource(41 + seed))
		for trial := 0; trial < 12; trial++ {
			p, err := pattern.Sample(h, 2+rng.Intn(3), 2, 25, rng)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteforce.Count(h, p)
			for _, nosym := range []bool{false, true} {
				opts := Options{Workers: 1, NoSymmetryBreak: nosym}
				chosen, err := CompilePlan(store, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				plans := []*oig.Plan{chosen}
				connectedOrders(p, func(order []int) {
					plan, err := CompilePlanOrdered(p, order, opts)
					if err != nil {
						t.Fatal(err)
					}
					plans = append(plans, plan)
				})
				for _, plan := range plans {
					res, err := MineWithPlanContext(context.Background(), store, plan, opts)
					if err != nil {
						t.Fatal(err)
					}
					if res.Ordered != want {
						t.Fatalf("seed %d trial %d nosym=%v: %d want %d (pattern %s, order %v)",
							seed, trial, nosym, res.Ordered, want, p, plan.Order)
					}
				}
			}
		}
	}
}

// TestDataAwareOrderPlansVerify: the order chosen by cost on the store
// compiles, in both modes, to plans that pass VerifyProgram, and so does the
// plan CompilePlan returns for it.
func TestDataAwareOrderPlansVerify(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "o", NumVertices: 100, NumEdges: 300,
		Communities: 6, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 8, EdgeSizeMean: 4, Seed: 102})
	store := dal.Build(h)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		p, err := pattern.Sample(h, 2+rng.Intn(4), 2, 30, rng)
		if err != nil {
			t.Fatal(err)
		}
		order := oig.ChooseOrder(store, p, -1)
		for _, mode := range []oig.Mode{oig.ModeSimple, oig.ModeMerged} {
			plan, err := oig.CompileOrdered(p, mode, order)
			if err != nil {
				t.Fatal(err)
			}
			if err := oig.VerifyProgram(plan); err != nil {
				t.Fatalf("trial %d mode %v: %v\n%s", trial, mode, err, plan)
			}
		}
		for _, nosym := range []bool{false, true} {
			chosen, err := CompilePlan(store, p, Options{NoSymmetryBreak: nosym})
			if err != nil {
				t.Fatal(err)
			}
			if err := oig.VerifyProgram(chosen); err != nil {
				t.Fatalf("trial %d nosym=%v: %v\n%s", trial, nosym, err, chosen)
			}
		}
	}
}

// TestChosenOrderGreedy: past six hyperedges the order is extended greedily;
// it stays connected and counts what the literal order counts (its first
// connected order, when the literal's is not).
func TestChosenOrderGreedy(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "g", NumVertices: 40, NumEdges: 120,
		Communities: 2, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 4, EdgeSizeMean: 3, Seed: 7})
	store := dal.Build(h)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 4; trial++ {
		p, err := pattern.Sample(h, 7, 2, 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Workers: 1, Limit: 20000}
		chosen, err := CompilePlan(store, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		for t2 := 1; t2 < len(chosen.Steps); t2++ {
			if len(chosen.Steps[t2].Conn) == 0 {
				t.Fatalf("trial %d: position %d of %v overlaps nothing before it", trial, t2, chosen.Order)
			}
		}
		literal, err := CompilePlanOrdered(p, literalOrder(p), opts)
		if err != nil {
			t.Fatal(err)
		}
		a, err := MineWithPlanContext(context.Background(), store, chosen, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := MineWithPlanContext(context.Background(), store, literal, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if a.Ordered != b.Ordered {
			t.Fatalf("trial %d: chosen order %v counts %d, literal %v counts %d", trial, chosen.Order, a.Ordered, literal.Order, b.Ordered)
		}
	}
}

// TestChosenOrderStartsAtRareDegree: with one degree-4 hyperedge among
// twenty of degree 2, the cheapest order binds the rare degree first.
func TestChosenOrderStartsAtRareDegree(t *testing.T) {
	edges := [][]uint32{{0, 1, 2, 3}}
	for i := uint32(0); i < 20; i++ {
		edges = append(edges, []uint32{i % 10, (i + 1) % 10})
	}
	h, err := hypergraph.Build(10, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := dal.Build(h)
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2, 3, 4}}, nil)
	if order := oig.ChooseOrder(store, p, -1); order[0] != 1 {
		t.Fatalf("order %v should start with the rare degree-4 hyperedge", order)
	}
}

// TestChosenOrderIgnoresLiteral is the metamorphic test of the order
// chooser: every hyperedge permutation of 200 patterns of the matching-order
// golden file, each with its vertices renamed, compiles to the same steps — on
// one store, on flat statistics (no store), and on the store with position 0
// fixed at each anchor, the anchor followed through the permutation. The order
// is chosen by cost and ties are broken by plan structure, not by how the
// literal names or lists its hyperedges. On the store the permuted plans also
// count the same.
func TestChosenOrderIgnoresLiteral(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "m", NumVertices: 120, NumEdges: 300,
		Communities: 6, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 8, EdgeSizeMean: 4, Seed: 17})
	store := dal.Build(h)
	f, err := os.Open("../pattern/testdata/matching_orders.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var pats []*pattern.Pattern
	sc := bufio.NewScanner(f)
	for line := 0; sc.Scan(); line++ {
		if line%7 != 0 {
			continue
		}
		p, err := pattern.Parse(sc.Text())
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(pats) < 200 {
		t.Fatalf("%d patterns, want 200", len(pats))
	}
	pats = pats[:200]
	if testing.Short() {
		pats = pats[:40]
	}
	opts := Options{Workers: 1, Limit: 5000}
	// compile returns q's plans: on the store, on flat statistics, and on the
	// store anchored at each hyperedge of q.
	compile := func(q *pattern.Pattern) (*oig.Plan, *oig.Plan, []*oig.Plan) {
		onStore, err := CompilePlan(store, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := oig.Compile(q, oig.ModeMerged)
		if err != nil {
			t.Fatal(err)
		}
		anchored := make([]*oig.Plan, q.NumEdges())
		for a := range anchored {
			if anchored[a], err = CompilePlanOrdered(q, oig.ChooseOrder(store, q, a), opts); err != nil {
				t.Fatal(err)
			}
			if anchored[a].Order[0] != a {
				t.Fatalf("%s anchored at %d: order %v", q, a, anchored[a].Order)
			}
		}
		return onStore, flat, anchored
	}
	rng := rand.New(rand.NewSource(19))
	for _, p := range pats {
		rename := rng.Perm(p.NumVertices())
		edges := make([][]uint32, p.NumEdges())
		for i := range edges {
			for _, v := range p.Edge(i) {
				edges[i] = append(edges[i], uint32(rename[v]))
			}
		}
		renamed := pattern.MustNew(edges, nil)
		base, baseFlat, baseAnchored := compile(p)
		want, err := MineWithPlanContext(context.Background(), store, base, opts)
		if err != nil {
			t.Fatal(err)
		}
		permutations(p.NumEdges(), func(perm []int) {
			q, err := renamed.Reorder(perm)
			if err != nil {
				t.Fatal(err)
			}
			plan, flat, anchored := compile(q)
			if !reflect.DeepEqual(plan.Steps, base.Steps) {
				t.Fatalf("%s as %s: plan\n%s\nwant the steps of\n%s", p, q, plan, base)
			}
			if !reflect.DeepEqual(flat.Steps, baseFlat.Steps) {
				t.Fatalf("%s as %s without a store: plan\n%s\nwant the steps of\n%s", p, q, flat, baseFlat)
			}
			// q's hyperedge i is p's perm[i].
			for i, a := range perm {
				if !reflect.DeepEqual(anchored[i].Steps, baseAnchored[a].Steps) {
					t.Fatalf("%s as %s anchored at %d (%d in %s): plan\n%s\nwant the steps of\n%s", p, q, i, a, p, anchored[i], baseAnchored[a])
				}
			}
			res, err := MineWithPlanContext(context.Background(), store, plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ordered != want.Ordered {
				t.Fatalf("%s as %s: %d embeddings, want %d", p, q, res.Ordered, want.Ordered)
			}
		})
	}
}

// permutations calls f with every permutation of 0..n-1 (Heap's algorithm;
// f must not keep the slice).
func permutations(n int, f func([]int)) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	c := make([]int, n)
	f(perm)
	for i := 0; i < n; {
		if c[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[c[i]], perm[i] = perm[i], perm[c[i]]
			}
			f(perm)
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}

// connectedOrders calls f with every matching order of p in which each
// position overlaps one before it (f must not keep the slice).
func connectedOrders(p *pattern.Pattern, f func([]int)) {
	permutations(p.NumEdges(), func(order []int) {
		for t := 1; t < len(order); t++ {
			if !overlapsAny(p, order[t], order[:t]) {
				return
			}
		}
		f(order)
	})
}

// literalOrder is the first connected order of p by hyperedge number: the
// literal order itself when each hyperedge overlaps one listed before it.
func literalOrder(p *pattern.Pattern) []int {
	order := []int{0}
	for len(order) < p.NumEdges() {
		for x := 1; x < p.NumEdges(); x++ {
			if !slices.Contains(order, x) && overlapsAny(p, x, order) {
				order = append(order, x)
				break
			}
		}
	}
	return order
}

// overlapsAny reports whether hyperedge x of p overlaps one of prefix.
func overlapsAny(p *pattern.Pattern, x int, prefix []int) bool {
	return slices.ContainsFunc(prefix, func(y int) bool { return p.Signature().Size(1<<y|1<<x) > 0 })
}

// TestEstimatedBindingsRegions pins the list estimate of one step to its
// formula. Pattern hyperedges b = {1, 6, 12}, c = {4, 5, 6, 7, 12} and
// d = {8, …, 12} are bound; a = {0, 12} is drawn from b's group of degree-2
// neighbours sharing one vertex. Inside b the vertices fall into the Venn
// regions {1}, {6} (also in c) and {12} (in c and d), and a needs its shared
// vertex in the last one: a third of the group, by the hypergeometric
// C(1,0)·C(1,0)·C(1,1)/C(3,1). Its overlaps with c and d lie inside b, so
// those groups cut nothing more.
func TestEstimatedBindingsRegions(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "r", NumVertices: 80, NumEdges: 400,
		Communities: 3, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 5, EdgeSizeMean: 3, Seed: 5})
	store := dal.Build(h)
	p := pattern.MustNew([][]uint32{{0, 12}, {1, 6, 12}, {4, 5, 6, 7, 12}, {8, 9, 10, 11, 12}}, nil)
	plan, err := CompilePlanOrdered(p, []int{1, 2, 3, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := oig.EstimatedBindings(store, plan)
	g := float64(store.GroupSum(3, 2, 1)) / float64(store.NumEdgesWithDegree(3))
	if want := b[2] * g / 3; math.Abs(b[3]-want) > 1e-9*want || want == 0 {
		t.Fatalf("bindings %v: position 3 has %g, want %g (b[2]·ḡ/3)", b, b[3], want)
	}
}
