package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"ohminer/internal/dal"
	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
	"ohminer/internal/pattern"
)

func estimateFixture(t *testing.T) (*dal.Store, *pattern.Pattern, uint64) {
	t.Helper()
	h := gen.MustGenerate(gen.Config{Name: "est", NumVertices: 400, NumEdges: 1500,
		Communities: 20, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 8, EdgeSizeMean: 4, Seed: 71})
	store := dal.Build(h)
	rng := rand.New(rand.NewSource(5))
	p, err := pattern.Sample(h, 3, 3, 25, rng)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Mine(store, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Ordered < 100 {
		t.Skipf("fixture too small: %d embeddings", exact.Ordered)
	}
	return store, p, exact.Ordered
}

func TestEstimateExactAtFullFraction(t *testing.T) {
	store, p, exact := estimateFixture(t)
	est, err := EstimateCount(context.Background(), store, p, 1.0, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Ordered != float64(exact) {
		t.Fatalf("fraction=1 estimate %.0f != exact %d", est.Ordered, exact)
	}
	if est.SampledRoots != est.TotalRoots {
		t.Fatalf("sampled %d of %d at fraction 1", est.SampledRoots, est.TotalRoots)
	}
}

func TestEstimateConverges(t *testing.T) {
	store, p, exact := estimateFixture(t)
	// Average over several seeds: an unbiased estimator's mean should land
	// near the truth.
	var sum float64
	const seeds = 12
	for s := int64(0); s < seeds; s++ {
		est, err := EstimateCount(context.Background(), store, p, 0.3, s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sum += est.Ordered
		if est.StdErr < 0 {
			t.Fatalf("negative stderr: %+v", est)
		}
	}
	mean := sum / seeds
	if rel := math.Abs(mean-float64(exact)) / float64(exact); rel > 0.4 {
		t.Fatalf("mean estimate %.0f deviates %.0f%% from exact %d", mean, rel*100, exact)
	}
}

func TestEstimateDeterministic(t *testing.T) {
	store, p, _ := estimateFixture(t)
	a, err := EstimateCount(context.Background(), store, p, 0.25, 9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateCount(context.Background(), store, p, 0.25, 9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Ordered != b.Ordered || a.SampledRoots != b.SampledRoots {
		t.Fatalf("estimate not deterministic: %+v vs %+v", a, b)
	}
}

func TestEstimateErrors(t *testing.T) {
	store, p, _ := estimateFixture(t)
	for _, f := range []float64{0, -0.5, 1.5} {
		if _, err := EstimateCount(context.Background(), store, p, f, 1, Options{}); err == nil {
			t.Errorf("fraction %f accepted", f)
		}
	}
}

// TestEstimateRefusesWhatMineRefuses: the estimator runs the same preflight
// as Mine. A labelled pattern on an unlabelled hypergraph used to panic on
// the caller's goroutine (index out of range in Hypergraph.Label) because
// EstimateCount built its run state by hand and skipped validateRun.
func TestEstimateRefusesWhatMineRefuses(t *testing.T) {
	store, _ := fig1(t) // no vertex labels, no hyperedge labels
	labeled := pattern.MustNew([][]uint32{{0, 1, 2, 3, 4, 5}, {3, 4, 5, 6, 7, 8}}, []uint32{0, 0, 0, 1, 1, 1, 0, 0, 0})
	edgeLabeled, err := pattern.NewEdgeLabeled([][]uint32{{0, 1, 2, 3, 4, 5}, {3, 4, 5, 6, 7, 8}}, nil, []uint32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*pattern.Pattern{"vertex labels": labeled, "hyperedge labels": edgeLabeled} {
		_, mineErr := Mine(store, p, Options{})
		_, estErr := EstimateCount(context.Background(), store, p, 1, 1, Options{})
		if mineErr == nil || estErr == nil || estErr.Error() != mineErr.Error() {
			t.Errorf("%s: EstimateCount err=%v, Mine err=%v; want the same refusal", name, estErr, mineErr)
		}
	}
}

func TestEstimateNoRoots(t *testing.T) {
	store, _ := fig1(t)
	p := pattern.MustNew([][]uint32{{0, 1, 2}}, nil) // degree 3 absent
	est, err := EstimateCount(context.Background(), store, p, 0.5, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Ordered != 0 || est.TotalRoots != 0 {
		t.Fatalf("%+v", est)
	}
}

// TestEstimateSamplesMinesPlan: EstimateCount samples the roots of the plan
// Mine runs — the order chosen by cost on the store, which starts at the one
// hyperedge of the smaller degree — not of the order that starts at the
// larger.
func TestEstimateSamplesMinesPlan(t *testing.T) {
	edges := [][]uint32{{0, 1}}
	for i := uint32(0); i < 12; i++ {
		edges = append(edges, []uint32{i, (i + 1) % 12, (i + 2) % 12, (i + 3) % 12})
	}
	store := dal.Build(hypergraph.MustBuild(12, edges, nil))
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2, 3, 4}}, nil)
	mined, err := Mine(store, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	larger, err := CompilePlanOrdered(p, []int{1, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	roots := len(firstCandidates(store, mined.Plan, Options{}))
	if other := len(firstCandidates(store, larger, Options{})); other == roots {
		t.Fatalf("both orders start from %d roots: the fixture no longer tells them apart", roots)
	}
	est, err := EstimateCount(context.Background(), store, p, 1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.TotalRoots != roots || est.Ordered != float64(mined.Ordered) {
		t.Fatalf("estimate over %d roots counts %v; Mine's plan has %d roots and counts %d", est.TotalRoots, est.Ordered, roots, mined.Ordered)
	}
}

// TestEstimateStopsOnContext: the context stops an estimate as it stops a
// mine. A context done before the start samples no root; one cancelled
// mid-run scales over the roots finished before the stop. Both return the
// context's error.
func TestEstimateStopsOnContext(t *testing.T) {
	store, p, _ := estimateFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	est, err := EstimateCount(ctx, store, p, 1, 1, Options{})
	if !errors.Is(err, context.Canceled) || est.SampledRoots != 0 || est.Ordered != 0 {
		t.Fatalf("cancelled before the start: %+v, %v", est, err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	once := false
	est, err = EstimateCount(ctx, store, p, 1, 1, Options{OnEmbedding: func([]uint32) {
		if !once {
			once = true
			cancel()
			time.Sleep(20 * time.Millisecond) // the stop flag is set off this goroutine
		}
	}})
	if !errors.Is(err, context.Canceled) || est.SampledRoots >= est.TotalRoots {
		t.Fatalf("cancelled at the first embedding: %d of %d roots, %v", est.SampledRoots, est.TotalRoots, err)
	}
}
