package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ohminer/internal/baseline"
	"ohminer/internal/bruteforce"
	"ohminer/internal/dal"
	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
	"ohminer/internal/mbv"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// fig1 builds the running example of the paper: the Figure 1(b) hypergraph
// and the Figure 1(a) pattern, whose only embedding is {e1, e2, e3}.
func fig1(t *testing.T) (*dal.Store, *pattern.Pattern) {
	t.Helper()
	h := hypergraph.MustBuild(15, [][]uint32{
		{0, 1, 2, 3, 4, 5},         // e1
		{3, 4, 5, 6, 7, 8},         // e2
		{3, 4, 5, 6, 7, 9, 10, 11}, // e3
		{0, 1, 2, 9, 12, 13},       // e4
		{1, 3, 4, 5, 6, 7, 8, 14},  // e5
	}, nil)
	p := pattern.MustNew([][]uint32{
		{0, 1, 2, 3, 4, 5},
		{3, 4, 5, 6, 7, 8},
		{3, 4, 5, 6, 7, 9, 10, 11},
	}, nil)
	return dal.Build(h), p
}

// oracleCount is the ordered count every system must report for p on the
// store's hypergraph: brute force's, which match-by-vertex (where its
// exponential search is tractable) and every internal/baseline variant —
// the paper's comparison systems, a third, structurally different
// implementation — must reproduce before the engine is held to it.
func oracleCount(t *testing.T, store *dal.Store, p *pattern.Pattern) uint64 {
	t.Helper()
	h := store.Hypergraph()
	want := bruteforce.Count(h, p)
	if p.NumVertices() <= 6 && !p.EdgeLabeled() {
		if res, err := mbv.Mine(h, p); err != nil || res.Ordered != want {
			t.Fatalf("mbv: Ordered=%d err=%v, brute force %d\npattern %s", res.Ordered, err, want, p)
		}
	}
	for _, v := range baseline.Variants() {
		res, err := baseline.Mine(context.Background(), store, p, baseline.Options{Gen: v.Gen, Val: v.Val, Workers: 2})
		if err != nil || res.Ordered != want {
			t.Fatalf("baseline %s: Ordered=%d err=%v, brute force %d\npattern %s", v.Name, res.Ordered, err, want, p)
		}
	}
	return want
}

// mineAll holds the engine to want on p with and without symmetry-breaking
// restrictions, on 1 and 3 workers.
func mineAll(t *testing.T, store *dal.Store, p *pattern.Pattern, want uint64, what string) {
	t.Helper()
	for _, norestrict := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			res, err := Mine(store, p, Options{Workers: workers, NoSymmetryBreak: norestrict})
			if err != nil {
				t.Fatalf("%s norestrict=%v: %v", what, norestrict, err)
			}
			if res.Ordered != want || res.Unique != want/uint64(res.Automorphisms) {
				t.Fatalf("%s norestrict=%v workers=%d: Ordered=%d Unique=%d want %d (|Aut|=%d)\npattern %s\nplan:\n%s",
					what, norestrict, workers, res.Ordered, res.Unique, want, res.Automorphisms, p, res.Plan)
			}
		}
	}
}

// TestFig1AllVariants: the engine and every baseline variant find the
// paper's running example exactly once.
func TestFig1AllVariants(t *testing.T) {
	store, p := fig1(t)
	want := oracleCount(t, store, p)
	if want != 1 {
		t.Fatalf("brute force found %d ordered embeddings, want 1", want)
	}
	mineAll(t, store, p, want, "fig1")
}

func randHypergraph(rng *rand.Rand, labeled bool) *hypergraph.Hypergraph {
	nv := 12 + rng.Intn(25)
	ne := 15 + rng.Intn(40)
	edges := make([][]uint32, ne)
	for i := range edges {
		sz := 2 + rng.Intn(5)
		for j := 0; j < sz; j++ {
			edges[i] = append(edges[i], uint32(rng.Intn(nv)))
		}
	}
	var labels []uint32
	if labeled {
		labels = make([]uint32, nv)
		for v := range labels {
			labels[v] = uint32(rng.Intn(3))
		}
	}
	h, err := hypergraph.Build(nv, edges, labels)
	if err != nil {
		panic(err)
	}
	return h
}

// TestDifferentialAllVariants is the central correctness test: the engine,
// restricted and not, on 1 and 3 workers, against the three oracles on
// randomized hypergraphs and patterns. (The variant × kernel crossing of the
// baselines themselves is internal/baseline's suite.)
func TestDifferentialAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		h := randHypergraph(rng, false)
		store := dal.Build(h)
		m := 2 + rng.Intn(3)
		p, err := pattern.Sample(h, m, 2, 30, rng)
		if err != nil {
			continue // graph too sparse for this pattern; fine
		}
		mineAll(t, store, p, oracleCount(t, store, p), fmt.Sprintf("trial %d", trial))
	}
}

// TestDifferentialLabeled repeats the differential test on labeled inputs.
func TestDifferentialLabeled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		h := randHypergraph(rng, true)
		store := dal.Build(h)
		p, err := pattern.Sample(h, 2+rng.Intn(2), 2, 30, rng)
		if err != nil {
			continue
		}
		mineAll(t, store, p, oracleCount(t, store, p), fmt.Sprintf("labeled trial %d", trial))
	}
}

// TestDifferentialDense exercises dense patterns (Sec. 5.5), which stress
// the validation path with many overlaps.
func TestDifferentialDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 40, NumEdges: 60,
		Communities: 3, MemberOverlap: 1.5, EdgeSizeMin: 3, EdgeSizeMax: 8, EdgeSizeMean: 5, Seed: 77})
	store := dal.Build(h)
	for trial := 0; trial < 10; trial++ {
		p, err := pattern.SampleDense(h, 3, 3, 25, rng)
		if err != nil {
			t.Skip("dense sampling failed on tiny graph")
		}
		mineAll(t, store, p, oracleCount(t, store, p), fmt.Sprintf("dense trial %d", trial))
	}
}

func TestSingleEdgePattern(t *testing.T) {
	store, _ := fig1(t)
	p := pattern.MustNew([][]uint32{{0, 1, 2, 3, 4, 5}}, nil)
	res, err := Mine(store, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Three degree-6 edges in the fixture.
	if res.Ordered != 3 {
		t.Fatalf("Ordered=%d want 3", res.Ordered)
	}
}

func TestAutomorphismAccounting(t *testing.T) {
	// A symmetric path pattern on a path-ish hypergraph: each unordered
	// embedding is found exactly Automorphisms() times.
	h := hypergraph.MustBuild(8, [][]uint32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
	}, nil)
	store := dal.Build(h)
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil)
	res, err := Mine(store, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Automorphisms != 2 {
		t.Fatalf("automorphisms=%d", res.Automorphisms)
	}
	// Paths of 3 consecutive edges: (e0,e1,e2), (e1,e2,e3), (e2,e3,e4) →
	// 3 unique, 6 ordered.
	if res.Unique != 3 || res.Ordered != 6 {
		t.Fatalf("unique=%d ordered=%d", res.Unique, res.Ordered)
	}
}

func TestOnEmbedding(t *testing.T) {
	store, p := fig1(t)
	var got [][]uint32
	_, err := Mine(store, p, Options{Workers: 2, OnEmbedding: func(c []uint32) {
		got = append(got, append([]uint32(nil), c...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("callbacks: %d", len(got))
	}
	// The embedding must be {e1,e2,e3} = IDs {0,1,2} in matching order.
	seen := map[uint32]bool{}
	for _, e := range got[0] {
		seen[e] = true
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("embedding %v", got[0])
	}
}

func TestLimit(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 100, NumEdges: 300,
		Communities: 5, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 6, EdgeSizeMean: 3, Seed: 55})
	store := dal.Build(h)
	rng := rand.New(rand.NewSource(3))
	p, err := pattern.Sample(h, 2, 2, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Mine(store, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Ordered < 10 {
		t.Skipf("workload too small (%d embeddings)", full.Ordered)
	}
	limited, err := Mine(store, p, Options{Workers: 1, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if limited.Ordered < 5 || limited.Ordered >= full.Ordered {
		t.Fatalf("limited=%d full=%d", limited.Ordered, full.Ordered)
	}
}

func TestInstrumentStats(t *testing.T) {
	store, p := fig1(t)
	res, err := Mine(store, p, Options{Workers: 1, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Candidates == 0 || st.SetOps == 0 {
		t.Fatalf("stats not collected: %+v", st)
	}
	if st.GenTime <= 0 || st.ValTime <= 0 {
		t.Fatalf("phase timers missing: %+v", st)
	}
}

func TestMineErrors(t *testing.T) {
	store, p := fig1(t)
	// The engine executes merged plans only.
	plan := oig.MustCompile(p, oig.ModeSimple)
	if _, err := MineWithPlanContext(context.Background(), store, plan, Options{}); !errors.Is(err, ErrPlanMode) {
		t.Errorf("simple plan: err=%v, want ErrPlanMode", err)
	}
	// Labeled pattern on unlabeled hypergraph.
	lp := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, []uint32{0, 0, 1})
	if _, err := Mine(store, lp, Options{}); err == nil {
		t.Error("labeled pattern accepted on unlabeled hypergraph")
	}
}

// TestCheckVariant: the "variant" key of request and spec bodies passes only
// as the production configuration's name; a baseline's is refused with a
// message saying where baselines run.
func TestCheckVariant(t *testing.T) {
	for _, ok := range []string{"", "OHMiner"} {
		if err := CheckVariant(ok); err != nil {
			t.Errorf("CheckVariant(%q) = %v", ok, err)
		}
	}
	for _, v := range baseline.Variants()[1:] {
		err := CheckVariant(v.Name)
		if err == nil || !strings.Contains(err.Error(), "ohmbench") || !strings.Contains(err.Error(), "ohminer -variant") {
			t.Errorf("CheckVariant(%q) = %v, want a refusal naming ohmbench and ohminer -variant", v.Name, err)
		}
	}
	if CheckVariant("nope") == nil {
		t.Error("unknown variant accepted")
	}
}

// TestWorkerPoolDeterministic checks that the multi-worker pool is a pure
// parallelization: mining with several workers yields exactly the
// single-worker counts. Run under -race (make race / make ci) this also
// shakes out data races between per-worker scratch states.
func TestWorkerPoolDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		labeled := trial%2 == 1
		h := randHypergraph(rng, labeled)
		store := dal.Build(h)
		p, err := pattern.Sample(h, 2+rng.Intn(2), 2, 30, rng)
		if err != nil {
			continue
		}
		base, err := Mine(store, p, Options{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, workers := range []int{2, 4, 8} {
			res, err := Mine(store, p, Options{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if res.Ordered != base.Ordered || res.Unique != base.Unique || res.Truncated != base.Truncated {
				t.Errorf("trial %d workers=%d: ordered/unique/trunc = %d/%d/%v, single-worker %d/%d/%v",
					trial, workers, res.Ordered, res.Unique, res.Truncated,
					base.Ordered, base.Unique, base.Truncated)
			}
		}
	}
}

func TestNoMatchingDegree(t *testing.T) {
	store, _ := fig1(t)
	p := pattern.MustNew([][]uint32{{0, 1, 2}}, nil) // degree 3: absent
	res, err := Mine(store, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ordered != 0 {
		t.Fatalf("Ordered=%d want 0", res.Ordered)
	}
}
