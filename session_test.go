package ohminer

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func sessionFixture(t *testing.T) (*Session, *Pattern) {
	t.Helper()
	h, err := BuildHypergraph(15, [][]uint32{
		{0, 1, 2, 3, 4, 5},
		{3, 4, 5, 6, 7, 8},
		{3, 4, 5, 6, 7, 9, 10, 11},
		{0, 1, 2, 9, 12, 13},
		{1, 3, 4, 5, 6, 7, 8, 14},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParsePattern("0 1 2 3 4 5; 3 4 5 6 7 8; 3 4 5 6 7 9 10 11")
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(NewStore(h)), p
}

func TestSessionCachesPlans(t *testing.T) {
	s, p := sessionFixture(t)
	for i := 0; i < 5; i++ {
		res, err := s.Mine(p, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Unique != 1 {
			t.Fatalf("run %d: unique=%d", i, res.Unique)
		}
	}
	if got := s.CachedPlans(); got != 1 {
		t.Fatalf("cached plans %d want 1", got)
	}
	// An unrestricted run compiles its own plan.
	if _, err := s.Mine(p, WithoutSymmetryBreaking(), WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if got := s.CachedPlans(); got != 2 {
		t.Fatalf("cached plans %d want 2", got)
	}
}

func TestSessionConcurrent(t *testing.T) {
	s, p := sessionFixture(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Mine(p, WithWorkers(1))
			if err != nil {
				errs <- err
				return
			}
			if res.Unique != 1 {
				errs <- errWrongCount
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type countErr struct{}

func (countErr) Error() string { return "wrong count" }

var errWrongCount = countErr{}

// TestSessionLabelFingerprintFullWidth is the regression test for the
// plan-cache key collision: labels are uint32, and the old fingerprint
// truncated them to one byte, so labels 1 and 257 (differing by 256)
// collided and the second query silently reused the first query's plan —
// returning counts for the wrong labels.
func TestSessionLabelFingerprintFullWidth(t *testing.T) {
	// Vertices 0,1 carry label 1; vertices 2,3,4 carry label 257.
	h, err := BuildHypergraph(5, [][]uint32{{0, 1}, {2, 3}, {3, 4}},
		[]uint32{1, 1, 257, 257, 257})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(NewStore(h))
	p1, err := NewPattern([][]uint32{{0, 1}}, []uint32{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPattern([][]uint32{{0, 1}}, []uint32{257, 257})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Mine(p1, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Mine(p2, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Ordered != 1 {
		t.Errorf("labels {1,1}: Ordered=%d want 1", r1.Ordered)
	}
	// Under the collision p2 reused p1's plan and reported 1.
	if r2.Ordered != 2 {
		t.Errorf("labels {257,257}: Ordered=%d want 2", r2.Ordered)
	}
	if got := s.CachedPlans(); got != 2 {
		t.Errorf("cached plans %d want 2 (labels 1 vs 257 must not collide)", got)
	}
}

// TestSessionEdgeLabelFingerprintFullWidth: the same 256-multiple collision
// for hyperedge labels.
func TestSessionEdgeLabelFingerprintFullWidth(t *testing.T) {
	h, err := BuildEdgeLabeledHypergraph(5, [][]uint32{{0, 1}, {2, 3}, {3, 4}},
		nil, []uint32{1, 257, 257})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(NewStore(h))
	p1, err := NewEdgeLabeledPattern([][]uint32{{0, 1}}, nil, []uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewEdgeLabeledPattern([][]uint32{{0, 1}}, nil, []uint32{257})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Mine(p1, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Mine(p2, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Ordered != 1 || r2.Ordered != 2 {
		t.Errorf("edge labels 1/257: Ordered=%d/%d want 1/2", r1.Ordered, r2.Ordered)
	}
	if got := s.CachedPlans(); got != 2 {
		t.Errorf("cached plans %d want 2 (edge labels 1 vs 257 must not collide)", got)
	}
}

// TestSessionConcurrentMixed hammers one session from many goroutines with
// a mix of labeled, edge-labeled, and unlabeled isomorphic patterns (plus an
// unrestricted run), asserting under -race that every query matches a
// fresh engine run and the plan cache holds exactly one plan per
// isomorphism class and compile option — the two isomorphic unlabeled literals share
// a single canonical plan.
func TestSessionConcurrentMixed(t *testing.T) {
	// One hypergraph carrying both vertex labels and hyperedge labels.
	h, err := BuildEdgeLabeledHypergraph(8,
		[][]uint32{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {6, 7}},
		[]uint32{1, 1, 1, 257, 257, 257, 2, 2},
		[]uint32{5, 5, 6, 5, 261})
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(h)
	s := NewSession(store)

	unlabeled1, err := ParsePattern("0 1; 1 2")
	if err != nil {
		t.Fatal(err)
	}
	unlabeled2, err := ParsePattern("3 4; 4 5") // isomorphic, distinct literal
	if err != nil {
		t.Fatal(err)
	}
	labeled1, err := NewPattern([][]uint32{{0, 1}}, []uint32{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	labeled2, err := NewPattern([][]uint32{{0, 1}}, []uint32{257, 257})
	if err != nil {
		t.Fatal(err)
	}
	edgeLabeled, err := NewEdgeLabeledPattern([][]uint32{{0, 1}}, nil, []uint32{5})
	if err != nil {
		t.Fatal(err)
	}

	type query struct {
		p    *Pattern
		opts []Option
	}
	queries := []query{
		{unlabeled1, nil},
		{unlabeled1, []Option{WithoutSymmetryBreaking()}}, // unrestricted plan, own cache entry
		{unlabeled2, nil}, // isomorphic to unlabeled1: shares its canonical plan
		{labeled1, nil},
		{labeled2, nil},
		{edgeLabeled, nil},
	}
	const wantPlans = 5

	// Ground truth from fresh engine runs (no session, no cache).
	want := make([]uint64, len(queries))
	for i, q := range queries {
		res, err := Mine(store, q.p, append([]Option{WithWorkers(2)}, q.opts...)...)
		if err != nil {
			t.Fatalf("fresh mine %d: %v", i, err)
		}
		want[i] = res.Ordered
	}

	// Warm the cache once per query so the concurrent phase is all hits.
	for i, q := range queries {
		if _, err := s.Mine(q.p, append([]Option{WithWorkers(1)}, q.opts...)...); err != nil {
			t.Fatalf("warmup %d: %v", i, err)
		}
	}

	const goroutines, rounds = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(queries)
				q := queries[i]
				res, err := s.Mine(q.p, append([]Option{WithWorkers(2)}, q.opts...)...)
				if err != nil {
					errs <- err
					return
				}
				if res.Ordered != want[i] {
					errs <- errWrongCount
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := s.CachedPlans(); got != wantPlans {
		t.Errorf("cached plans %d want %d", got, wantPlans)
	}
	hits, misses := s.CacheStats()
	totalQueries := uint64(len(queries) + goroutines*rounds)
	if misses != wantPlans {
		t.Errorf("cache misses %d want %d (one compile per distinct plan)", misses, wantPlans)
	}
	if hits+misses != totalQueries {
		t.Errorf("hits+misses = %d+%d, want %d total queries", hits, misses, totalQueries)
	}
}

// TestSessionMineContext: cancellation propagates through the session path.
func TestSessionMineContext(t *testing.T) {
	s, p := sessionFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.MineContext(ctx, p, WithWorkers(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if res, err := s.MineContext(context.Background(), p, WithWorkers(1)); err != nil || res.Unique != 1 {
		t.Fatalf("live ctx: res=%+v err=%v", res, err)
	}
}

func TestSessionLabeledKeying(t *testing.T) {
	h, err := BuildHypergraph(4, [][]uint32{{0, 1}, {1, 2}, {2, 3}}, []uint32{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(NewStore(h))
	p1, err := NewPattern([][]uint32{{0, 1}, {1, 2}}, []uint32{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPattern([][]uint32{{0, 1}, {1, 2}}, []uint32{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Mine(p1, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Mine(p2, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	// Same structure, different labels: must not share a cached plan.
	if s.CachedPlans() != 2 {
		t.Fatalf("cached plans %d want 2", s.CachedPlans())
	}
	if r1.Ordered == 0 && r2.Ordered == 0 {
		t.Fatal("degenerate fixture: no labeled matches at all")
	}
}
