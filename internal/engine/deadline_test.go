package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"ohminer/internal/dal"
	"ohminer/internal/gen"
	"ohminer/internal/pattern"
)

// TestDeadlineTruncates: a run under a context with a tiny deadline must
// stop early, return context.DeadlineExceeded, flag Truncated, and
// undercount relative to the full run.
func TestDeadlineTruncates(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "d", NumVertices: 250, NumEdges: 4000,
		Communities: 6, MemberOverlap: 2, EdgeSizeMin: 2, EdgeSizeMax: 6, EdgeSizeMean: 3, Seed: 19})
	store := dal.Build(h)
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil)

	full, err := Mine(store, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Fatal("unbounded run marked truncated")
	}
	if full.Elapsed < 5*time.Millisecond {
		t.Skipf("workload too fast (%v) to truncate reliably", full.Elapsed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	cut, err := MineContext(ctx, store, p, Options{Workers: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want context.DeadlineExceeded", err)
	}
	if !cut.Truncated {
		t.Fatalf("deadline run not truncated (full took %v)", full.Elapsed)
	}
	if cut.Ordered >= full.Ordered {
		t.Fatalf("truncated run counted %d ≥ full %d", cut.Ordered, full.Ordered)
	}
}

// TestLimitMarksTruncated: hitting the Limit flags the result.
func TestLimitMarksTruncated(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "d", NumVertices: 120, NumEdges: 600,
		Communities: 5, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 5, EdgeSizeMean: 3, Seed: 20})
	store := dal.Build(h)
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)
	full, err := Mine(store, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Ordered < 20 {
		t.Skip("workload too small")
	}
	lim, err := Mine(store, p, Options{Workers: 1, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !lim.Truncated {
		t.Fatal("limit hit but not marked truncated")
	}
}
