package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestContextCancelPartialResult is the acceptance test for engine
// cancellation: cancelling the context mid-run on the skewed-hub workload
// must return promptly with ctx.Err() and a partial, truncated Result.
// The OnEmbedding callback throttles the run so it cannot finish before
// the cancel lands; the observed cancel→return latency is bounded.
func TestContextCancelPartialResult(t *testing.T) {
	setSplit(t, defaultSplitDepth, 2)
	store, plan := skewedInput(t, 24)
	total := uint64(24 * 24)

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	var cancelled atomic2 // time the cancel was issued, set by the canceller
	go func() {
		<-started
		cancelled.set(time.Now())
		cancel()
	}()
	res, err := MineWithPlanContext(ctx, store, plan, Options{
		Workers: 4,
		OnEmbedding: func([]uint32) {
			once.Do(func() { close(started) })
			time.Sleep(time.Millisecond)
		},
	})
	latency := time.Since(cancelled.get())
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if res.Ordered == 0 || res.Ordered >= total {
		t.Errorf("partial Ordered=%d, want in (0, %d)", res.Ordered, total)
	}
	if !res.Truncated {
		t.Error("cancelled run not marked truncated")
	}
	// Workers poll the stop flag once per candidate; with a 1 ms
	// per-embedding throttle and 4 workers the unwind is bounded far
	// below this (generous, CI-safe) budget.
	if latency > 5*time.Second {
		t.Errorf("cancel→return latency %v", latency)
	}
}

// atomic2 is a tiny mutex-guarded time cell (test-only; avoids importing
// sync/atomic for a non-integer).
type atomic2 struct {
	mu sync.Mutex
	t  time.Time
}

func (a *atomic2) set(t time.Time) { a.mu.Lock(); a.t = t; a.mu.Unlock() }
func (a *atomic2) get() time.Time  { a.mu.Lock(); defer a.mu.Unlock(); return a.t }

// TestContextPreCancelled: an already-dead context never starts mining, and
// the run reports that it left everything unexplored.
func TestContextPreCancelled(t *testing.T) {
	store, plan := skewedInput(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MineWithPlanContext(ctx, store, plan, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if res.Ordered != 0 || !res.Truncated {
		t.Fatalf("pre-cancelled run mined %d embeddings, truncated=%v", res.Ordered, res.Truncated)
	}
}

// TestContextCompletedRunNoError: a context that stays live must not
// disturb a normal run.
func TestContextCompletedRunNoError(t *testing.T) {
	setSplit(t, defaultSplitDepth, 2)
	store, plan := skewedInput(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := MineWithPlanContext(ctx, store, plan, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ordered != 64 || res.Truncated {
		t.Fatalf("Ordered=%d truncated=%v, want 64/false", res.Ordered, res.Truncated)
	}
}

// TestWorkerPanicReturnsError: a panic on a worker goroutine (here a user
// OnEmbedding callback) must surface as ErrWorkerPanic from Mine instead
// of killing the process, and must stop the remaining workers.
func TestWorkerPanicReturnsError(t *testing.T) {
	setSplit(t, defaultSplitDepth, 2)
	store, plan := skewedInput(t, 8)
	res, err := MineWithPlanContext(context.Background(), store, plan, Options{
		Workers:     4,
		OnEmbedding: func([]uint32) { panic("callback boom") },
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err=%v, want ErrWorkerPanic", err)
	}
	if !strings.Contains(err.Error(), "callback boom") {
		t.Errorf("error %q does not carry the panic value", err)
	}
	if !res.Truncated {
		t.Error("panicked run not marked truncated")
	}
}

// TestLimitExactSemantics pins the Limit/Truncated contract: a limit the run
// never outgrows (exactly-at-total and one-past-total) must NOT mark the result
// truncated — exploration exhausted the search space — while a limit below
// the total must.
func TestLimitExactSemantics(t *testing.T) {
	setSplit(t, defaultSplitDepth, 2)
	store, plan := skewedInput(t, 8)
	total := uint64(64)
	for _, lim := range []uint64{total, total + 1} {
		res, err := MineWithPlanContext(context.Background(), store, plan, Options{
			Workers: 1, Limit: lim,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ordered != total {
			t.Errorf("limit=%d: Ordered=%d want %d", lim, res.Ordered, total)
		}
		if res.Truncated {
			t.Errorf("limit=%d: exhausted run marked truncated", lim)
		}
	}
	res, err := MineWithPlanContext(context.Background(), store, plan, Options{
		Workers: 1, Limit: total - 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Errorf("limit %d below total %d not marked truncated", total-1, total)
	}
	if res.Ordered < total-1 {
		t.Errorf("Ordered=%d below limit %d", res.Ordered, total-1)
	}
}
