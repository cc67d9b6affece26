package engine

// Chaos tests: drive the checkpoint/resume machinery through injected
// failures (internal/faultinject) and require exact-count recovery every
// time. These run race-instrumented via `make chaos` (wired into `make
// ci`); every fault point is derived deterministically from the table seed,
// so a failure replays identically.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ohminer/internal/checkpoint"
	"ohminer/internal/durable"
	"ohminer/internal/faultinject"
)

const chaosTick = 2 * time.Millisecond

// chaosOpts is the shared option block: a throttled workload, so each run
// spans many checkpoint periods. The 100µs
// throttle stretches the 3540-embedding workload to >100ms of wall time:
// a checkpoint costs a full quiesce/restart cycle, and under heavy load
// (race-instrumented CI) a cycle can take tens of milliseconds, so the run
// must be long enough to fit every derived fault point with margin.
func chaosOpts(sink checkpoint.Sink) Options {
	return Options{
		Workers:         3,
		Checkpoint:      sink,
		CheckpointEvery: chaosTick,
		OnEmbedding:     faultinject.SlowEmbedding(100 * time.Microsecond),
	}
}

// TestChaosKillAtKthCheckpoint kills the run (context cancellation — the
// SIGKILL stand-in: everything after the last durable snapshot is lost)
// right after the k-th checkpoint lands on disk, then resumes from the file
// and requires the exact uninterrupted total. Several kill points, and a
// second resume of the same snapshot to prove idempotence. (Subtest names
// keep the split=0 component they had while SplitDepth=-1 selected a second
// scheduler: same cases, same IDs in test history.)
func TestChaosKillAtKthCheckpoint(t *testing.T) {
	setSplit(t, defaultSplitDepth, 2)
	store, p, want := slowWorkload(t)
	for seed := uint64(1); seed <= 3; seed++ {
		// Capped at 3: every run reliably reaches 3 checkpoints even
		// when a loaded machine stretches each quiesce cycle.
		killAt := int(faultinject.Derive(seed, "kill", 3))
		t.Run(fmt.Sprintf("split=0/killAt=%d", killAt), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &faultinject.CrashSink[*checkpoint.Snapshot]{
				Inner:   &durable.FileSink[*checkpoint.Snapshot]{Path: path},
				After:   killAt,
				OnCrash: cancel,
			}
			res1, err := MineContext(ctx, store, p, chaosOpts(sink))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("kill missed: err=%v after %d writes", err, sink.Writes())
			}
			if !res1.Truncated {
				t.Error("killed run not Truncated")
			}
			if res1.Ordered >= want {
				t.Fatalf("kill came after completion (%d >= %d); cannot exercise resume", res1.Ordered, want)
			}

			snap, err := checkpoint.ReadFile(path)
			if err != nil {
				t.Fatalf("read snapshot: %v", err)
			}
			for attempt := 1; attempt <= 2; attempt++ {
				res, err := ResumeFromCheckpoint(context.Background(), store, p,
					snap, chaosOpts(nil))
				if err != nil {
					t.Fatalf("resume attempt %d: %v", attempt, err)
				}
				if res.Ordered != want {
					t.Errorf("resume attempt %d: total %d, want %d (snapshot carried %d)",
						attempt, res.Ordered, want, snap.Ordered)
				}
				if res.Truncated {
					t.Errorf("resume attempt %d: completed run Truncated", attempt)
				}
			}
		})
	}
}

// TestChaosTornCheckpointRejected tears the snapshot file mid-write (the
// corruption a non-atomic writer leaves on power loss) at several tear
// lengths; the loader must reject every torn file as corrupt — resuming
// from garbage would be worse than starting over.
func TestChaosTornCheckpointRejected(t *testing.T) {
	setSplit(t, defaultSplitDepth, 2)
	store, p, _ := slowWorkload(t)
	for seed := uint64(1); seed <= 4; seed++ {
		// Max tear length stays below the smallest complete snapshot (~204
		// bytes for a one-task frontier), so every torn file is truly short.
		tearBytes := int(faultinject.Derive(seed, "tear", 150))
		t.Run(fmt.Sprintf("tearBytes=%d", tearBytes), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &faultinject.TornSink[*checkpoint.Snapshot]{Path: path, TearAt: 2, TearBytes: tearBytes}
			crash := &faultinject.CrashSink[*checkpoint.Snapshot]{Inner: sink, After: 2, OnCrash: cancel}
			if _, err := MineContext(ctx, store, p, chaosOpts(crash)); !errors.Is(err, context.Canceled) {
				t.Fatalf("kill missed: %v", err)
			}
			if _, err := checkpoint.ReadFile(path); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("torn snapshot (%d bytes) not rejected as corrupt: %v", tearBytes, err)
			}
		})
	}
}

// TestChaosPanicThenResume crashes a worker mid-run with an injected panic
// (a buggy user callback). The run must surface ErrWorkerPanic — with the
// deferred emitMu release, not a deadlock — and the last snapshot written
// before the panic must resume to the exact total: the partial work of the
// crashed round is lost, never double-counted.
func TestChaosPanicThenResume(t *testing.T) {
	setSplit(t, defaultSplitDepth, 2)
	store, p, want := slowWorkload(t)
	// Fault points live in callback space: the symmetry-broken plan fires
	// OnEmbedding once per orbit, so the run makes want/|Aut| calls total.
	calls := want / uint64(p.Automorphisms())
	for seed := uint64(1); seed <= 2; seed++ {
		// Late enough that checkpoints exist, early enough to lose work.
		panicAt := 500 + faultinject.Derive(seed, "panic", calls-1000)
		t.Run(fmt.Sprintf("split=0/panicAt=%d", panicAt), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			opts := chaosOpts(&durable.FileSink[*checkpoint.Snapshot]{Path: path})
			opts.OnEmbedding = faultinject.PanicAfter(panicAt,
				faultinject.SlowEmbedding(100*time.Microsecond))
			res, err := Mine(store, p, opts)
			if !errors.Is(err, ErrWorkerPanic) {
				t.Fatalf("err=%v, want ErrWorkerPanic", err)
			}
			if !res.Truncated {
				t.Error("panicked run not Truncated")
			}
			if _, err := os.Stat(path); err != nil {
				t.Skipf("panic landed before the first checkpoint (%v); nothing to resume", err)
			}
			snap, err := checkpoint.ReadFile(path)
			if err != nil {
				t.Fatalf("read snapshot: %v", err)
			}
			got, err := ResumeFromCheckpoint(context.Background(), store, p,
				snap, chaosOpts(nil))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got.Ordered != want {
				t.Errorf("resumed total %d, want %d (snapshot carried %d)", got.Ordered, want, snap.Ordered)
			}
		})
	}
}

// TestChaosFullDisk: persistent checkpoint failure (ENOSPC) must never
// change the mining result — the run completes exact with the failures
// merely counted.
func TestChaosFullDisk(t *testing.T) {
	setSplit(t, defaultSplitDepth, 2)
	store, p, want := slowWorkload(t)
	sink := &faultinject.NoSpaceSink[*checkpoint.Snapshot]{}
	res, err := Mine(store, p, chaosOpts(sink))
	if err != nil {
		t.Fatalf("%v", err)
	}
	if res.Ordered != want || res.Truncated {
		t.Errorf("Ordered=%d Truncated=%v, want %d/false", res.Ordered, res.Truncated, want)
	}
	if sink.Attempts() == 0 || res.Stats.CheckpointErrors != sink.Attempts() {
		t.Errorf("%d refused writes, stats count %d", sink.Attempts(), res.Stats.CheckpointErrors)
	}
	if res.Stats.Publishes == 0 {
		t.Error("no publications: the chaos runs no longer exercise stealing")
	}
}
