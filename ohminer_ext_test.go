package ohminer

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestFacadeExtensions exercises the extension APIs end-to-end through the
// public surface: estimation, store persistence, motif census, dynamic
// mining, matching-order choice, canonical emission.
func TestFacadeExtensions(t *testing.T) {
	preset, err := DatasetPresetByTag("CH")
	if err != nil {
		t.Fatal(err)
	}
	cfg := preset.Config
	cfg.NumEdges = 1500 // trim for test speed
	h, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(h)
	p, err := SamplePattern(h, 2, 3, 10, 5)
	if err != nil {
		t.Fatal(err)
	}

	exact, err := Mine(store, p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	// The same pattern written with its hyperedges the other way round: Mine
	// picks its order from the store, so both run the same plan.
	rp, err := p.Reorder([]int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Mine(store, rp, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if rev.Ordered != exact.Ordered || !reflect.DeepEqual(rev.Plan.Steps, exact.Plan.Steps) {
		t.Fatalf("reversed literal: %d embeddings over\n%s, want %d over\n%s", rev.Ordered, rev.Plan, exact.Ordered, exact.Plan)
	}

	est, err := EstimateCount(store, p, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Ordered != float64(exact.Ordered) {
		t.Fatalf("estimate at fraction 1: %.0f vs %d", est.Ordered, exact.Ordered)
	}

	// Persistence.
	path := filepath.Join(t.TempDir(), "ch.dal")
	if err := SaveStore(store, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(path, h)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Mine(loaded, p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if re.Ordered != exact.Ordered {
		t.Fatalf("loaded store mined %d vs %d", re.Ordered, exact.Ordered)
	}

	// Canonical emission.
	emitted := 0
	res, err := Mine(store, p, WithWorkers(1),
		WithEmbeddings(func([]uint32) { emitted++ }))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(emitted) != res.Unique {
		t.Fatalf("canonical emission: %d vs %d", emitted, res.Unique)
	}

	// Motif census.
	entries, err := MotifCensus(store, 2, 2, 6, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty census")
	}
	freq := FrequentMotifs(entries, 1)
	if len(freq) == 0 {
		t.Fatal("no motif occurs in CH-like data")
	}
	if sim, err := MotifSimilarity(entries, entries); err != nil || sim < 0.999 {
		t.Fatalf("self similarity %f %v", sim, err)
	}
}

func TestFacadePatternCatalog(t *testing.T) {
	chain, err := ChainPattern(3, 4, 2)
	if err != nil || chain.NumEdges() != 3 {
		t.Fatalf("chain: %v", err)
	}
	star, err := StarPattern(3, 3, 1)
	if err != nil || star.Automorphisms() != 6 {
		t.Fatalf("star: %v", err)
	}
	cyc, err := CyclePattern(3, 4, 1)
	if err != nil {
		t.Fatalf("cycle: %v", err)
	}
	nested, err := NestedPattern(2, 4, 2)
	if err != nil {
		t.Fatalf("nested: %v", err)
	}
	clique, err := CliquePattern(3, 4, 2)
	if err != nil {
		t.Fatalf("clique: %v", err)
	}
	// All compile and verify.
	for _, p := range []*Pattern{chain, star, cyc, nested, clique} {
		if _, err := CompilePattern(p); err != nil {
			t.Fatalf("compile %s: %v", p, err)
		}
	}
}

func TestFacadeEdgeLabeled(t *testing.T) {
	h, err := BuildEdgeLabeledHypergraph(4,
		[][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil, []uint32{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(h)
	p, err := NewEdgeLabeledPattern([][]uint32{{0, 1}, {1, 2}}, nil, []uint32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(store, p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ordered != 2 {
		t.Fatalf("edge-labeled ordered=%d want 2", res.Ordered)
	}
}
