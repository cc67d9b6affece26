package ohminer

// Tests for the canonical plan cache and the result cache: isomorphic
// literals share one plan and one cached result, compilation is
// single-flight under concurrency, and only complete side-effect-free runs
// enter the result cache.

import (
	"context"
	"sync"
	"testing"
)

// TestSessionIsomorphicLiteralsShare: two different literals of the same
// pattern compile once, share the cached plan, and the second counting
// query is answered from the result cache.
func TestSessionIsomorphicLiteralsShare(t *testing.T) {
	s, p := sessionFixture(t)
	q, err := ParsePattern("10 11 12 13 14 15; 13 14 15 16 17 18; 13 14 15 16 17 19 20 21")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Mine(p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Mine(q, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Unique != r2.Unique || r1.Ordered != r2.Ordered {
		t.Fatalf("isomorphic literals disagree: %d/%d vs %d/%d", r1.Unique, r1.Ordered, r2.Unique, r2.Ordered)
	}
	if got := s.CachedPlans(); got != 1 {
		t.Errorf("cached plans %d, want 1 (isomorphic literals share)", got)
	}
	if hits, misses := s.CacheStats(); hits != 1 || misses != 1 {
		t.Errorf("plan cache hits/misses %d/%d, want 1/1", hits, misses)
	}
	if hits, misses := s.ResultCacheStats(); hits != 1 || misses != 1 {
		t.Errorf("result cache hits/misses %d/%d, want 1/1 (second literal reuses the result)", hits, misses)
	}
	if got := s.CachedResults(); got != 1 {
		t.Errorf("cached results %d, want 1", got)
	}
}

// TestSessionResultCacheGating: queries with side effects or partial
// results never populate (or read) the result cache.
func TestSessionResultCacheGating(t *testing.T) {
	s, p := sessionFixture(t)

	// Limit, callback, and instrumented queries bypass the cache entirely.
	if _, err := s.Mine(p, WithWorkers(1), WithLimit(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mine(p, WithWorkers(1), WithEmbeddings(func([]uint32) {})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mine(p, WithWorkers(1), WithInstrumentation()); err != nil {
		t.Fatal(err)
	}
	if hits, misses := s.ResultCacheStats(); hits != 0 || misses != 0 {
		t.Errorf("side-effecting queries touched the result cache: hits/misses %d/%d", hits, misses)
	}
	if got := s.CachedResults(); got != 0 {
		t.Errorf("cached results %d after non-cacheable queries, want 0", got)
	}

	// A cancelled run errors and must not be stored.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.MineContext(ctx, p, WithWorkers(1)); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if got := s.CachedResults(); got != 0 {
		t.Errorf("cancelled run was cached (%d results)", got)
	}

	// A clean run is stored; repeating it hits.
	want, err := s.Mine(p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Mine(p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Unique != want.Unique || got.Ordered != want.Ordered {
		t.Errorf("cached result %d/%d differs from computed %d/%d", got.Unique, got.Ordered, want.Unique, want.Ordered)
	}
	if hits, _ := s.ResultCacheStats(); hits != 1 {
		t.Errorf("repeat query did not hit the result cache (hits=%d)", hits)
	}
}

// TestSessionResultCacheCapacity: the LRU evicts, and capacity 0 disables
// and drops everything held.
func TestSessionResultCacheCapacity(t *testing.T) {
	s, p := sessionFixture(t)
	p2, err := ParsePattern("0 1 2 3 4 5; 3 4 5 6 7 8")
	if err != nil {
		t.Fatal(err)
	}
	s.SetResultCacheCapacity(1)
	if _, err := s.Mine(p, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mine(p2, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if got := s.CachedResults(); got != 1 {
		t.Fatalf("cached results %d with capacity 1, want 1", got)
	}
	// p was evicted by p2: repeating it misses and re-runs.
	if _, err := s.Mine(p, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if hits, misses := s.ResultCacheStats(); hits != 0 || misses != 3 {
		t.Errorf("hits/misses %d/%d, want 0/3 (capacity-1 thrash)", hits, misses)
	}
	s.SetResultCacheCapacity(0)
	if got := s.CachedResults(); got != 0 {
		t.Errorf("capacity 0 kept %d results", got)
	}
	if _, err := s.Mine(p, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if got := s.CachedResults(); got != 0 {
		t.Errorf("disabled cache stored a result")
	}
}

// TestSessionSingleflightCompile: many goroutines racing on one fresh
// pattern compile it exactly once (run under -race in CI).
func TestSessionSingleflightCompile(t *testing.T) {
	s, p := sessionFixture(t)
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := s.Mine(p, WithWorkers(1)); err != nil {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.CachedPlans(); got != 1 {
		t.Errorf("cached plans %d, want 1", got)
	}
	hits, misses := s.CacheStats()
	if misses != 1 {
		t.Errorf("misses %d, want 1 (single-flight compile)", misses)
	}
	if hits+misses != goroutines {
		t.Errorf("hits+misses %d+%d, want %d", hits, misses, goroutines)
	}
}

// TestSessionSetStoreInvalidatesResults: cached results are keyed by
// dataset fingerprint, so swapping the session onto a new store version
// stops serving counts mined from the old content — the stale-cache bug a
// streaming deployment would otherwise hit every compaction. Swapping back
// to byte-identical content hits again, and the plan cache survives every
// swap.
func TestSessionSetStoreInvalidatesResults(t *testing.T) {
	s, p := sessionFixture(t)
	// Without the third edge the fixture pattern has no match at all, so the
	// two datasets provably disagree on the count.
	edges := [][]uint32{
		{0, 1, 2, 3, 4, 5},
		{3, 4, 5, 6, 7, 8},
	}
	hSmall, err := BuildHypergraph(15, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	hSame, err := BuildHypergraph(15, edges, nil)
	if err != nil {
		t.Fatal(err)
	}

	r1, err := s.Mine(p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mine(p, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if hits, _ := s.ResultCacheStats(); hits != 1 {
		t.Fatalf("warmup hits %d, want 1", hits)
	}
	fpBig := s.DatasetFingerprint()

	// Different content: the cached result must not answer.
	s.SetStore(NewStore(hSmall))
	if s.DatasetFingerprint() == fpBig {
		t.Fatal("fingerprint unchanged across different content")
	}
	r2, err := s.Mine(p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := s.ResultCacheStats(); hits != 1 {
		t.Fatalf("stale result served after SetStore (hits %d)", hits)
	}
	if r2.Ordered == r1.Ordered {
		t.Fatalf("counts identical across datasets (%d) — fixture needs different content", r2.Ordered)
	}
	plansBefore := s.CachedPlans()
	if plansBefore == 0 {
		t.Fatal("plan cache emptied by SetStore")
	}

	// Byte-identical content under a different build: same fingerprint,
	// cache hit, no engine run.
	s.SetStore(NewStore(hSame))
	if s.DatasetFingerprint() == fpBig {
		t.Fatal("distinct datasets share a fingerprint")
	}
	r3, err := s.Mine(p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := s.ResultCacheStats(); hits != 2 {
		t.Fatalf("identical content missed the cache (hits %d)", hits)
	}
	if r3.Ordered != r2.Ordered {
		t.Fatalf("identical content, different counts: %d vs %d", r3.Ordered, r2.Ordered)
	}
	if s.CachedPlans() != plansBefore {
		t.Fatalf("plan cache changed across identical-content swap")
	}
}

// TestSessionPlanCacheBounded: 10 000 distinct patterns — two hyperedges of
// sizes a ≤ b overlapping in c vertices — leave at most maxCachedPlans plans
// behind, and a pattern sent again after them still counts correctly.
func TestSessionPlanCacheBounded(t *testing.T) {
	s, p := sessionFixture(t)
	want, err := Mine(s.Store(), p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mine(p, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	sent := 0
	for b := uint32(1); sent < 10000; b++ {
		for a := uint32(1); a <= b && sent < 10000; a++ {
			for c := uint32(1); c <= a && sent < 10000; c++ {
				if a == b && b == c {
					continue // one hyperedge twice
				}
				e0, e1 := make([]uint32, a), make([]uint32, b)
				for i := range e0 {
					e0[i] = uint32(i)
				}
				for i := range e1 {
					e1[i] = a - c + uint32(i)
				}
				q, err := NewPattern([][]uint32{e0, e1}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Mine(q, WithWorkers(1)); err != nil {
					t.Fatalf("pattern (%d, %d, %d): %v", a, b, c, err)
				}
				sent++
			}
		}
	}
	if hits, misses := s.CacheStats(); hits != 0 || misses != 10001 {
		t.Fatalf("plan cache hits/misses %d/%d, want 0/10001: the patterns are not all distinct", hits, misses)
	}
	if got := s.CachedPlans(); got > maxCachedPlans {
		t.Fatalf("%d cached plans after 10001 distinct patterns, cap %d", got, maxCachedPlans)
	}
	got, err := s.Mine(p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Ordered != want.Ordered || got.Unique != want.Unique {
		t.Fatalf("re-sent pattern counts %d/%d, want %d/%d", got.Ordered, got.Unique, want.Ordered, want.Unique)
	}
}
