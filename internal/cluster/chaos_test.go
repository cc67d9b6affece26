package cluster

// Cluster chaos: one coordinator, three real workers, two injected failures
// racing a short lease TTL — and the final count must still be exact.
//
//   - "kill": the worker's network is cut and its context cancelled on its
//     first embedding — the SIGKILL stand-in. Its report is swallowed by
//     the partition, its lease expires, the task is reassigned.
//   - "zombie": the worker's network is cut mid-task and the worker stalls
//     (blocked in the embedding callback) until the job finishes without
//     it; then the partition heals and the zombie completes and reports —
//     late, with a stale epoch. The coordinator must fence the report out,
//     or the reassigned-and-redone task would be counted twice.
//   - "healthy": mines everything the other two drop.
//
// Runs race-instrumented via `make chaos`; the fault points are
// first-embedding triggers, so the schedule is as deterministic as the
// scenario allows.

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/faultinject"
)

func TestChaosClusterKillAndZombie(t *testing.T) {
	t.Run("split=0", func(t *testing.T) {
		store, pat, want := starWorkload(t)
		c, srv := testCluster(t, store, Config{
			LeaseTTL: 300 * time.Millisecond,
			Parts:    8,
		})
		if _, err := c.StartJob("chaos", JobSpec{Pattern: pat}); err != nil {
			t.Fatalf("start job: %v", err)
		}
		engOpts := engine.Options{Workers: 2}
		throttle := faultinject.SlowEmbedding(100 * time.Microsecond)

		ctx, cancelAll := context.WithCancel(context.Background())
		defer cancelAll()
		var wg sync.WaitGroup

		// killed: partitioned and SIGKILLed (context cancel) on its first
		// embedding. The cut transport swallows the dying report, so from
		// the coordinator's view the worker simply vanished mid-lease.
		killCtx, kill := context.WithCancel(ctx)
		defer kill()
		killPT := &faultinject.PartitionTransport{}
		killed := startChaosWorker(t, srv.URL, "killed", store, engOpts, killPT,
			faultinject.HookAfter(1, func() {
				killPT.Cut()
				kill()
			}, throttle))
		wg.Add(1)
		go func() { defer wg.Done(); _ = killed.Run(killCtx) }()

		// zombie: partitioned on its first embedding, then stalled inside
		// the mining callback until the job completes without it. Its
		// heartbeats fail silently the whole time (it cannot tell a dead
		// coordinator from a dead link), so it keeps mining; after the
		// heal its report arrives with a long-stale epoch.
		zombiePT := &faultinject.PartitionTransport{}
		zombie := startChaosWorker(t, srv.URL, "zombie", store, engOpts, zombiePT,
			faultinject.HookAfter(1, func() {
				zombiePT.Cut()
				waitForJobDone(t, srv.URL, "chaos", 60*time.Second)
				zombiePT.Heal()
			}, throttle))
		wg.Add(1)
		go func() { defer wg.Done(); _ = zombie.Run(ctx) }()

		// Hold the healthy worker back until both faulty workers hold a
		// lease, so the fault scenarios are guaranteed to engage.
		waitFor(t, 10*time.Second, "faulty workers never leased", func() bool {
			return killed.Leases() >= 1 && zombie.Leases() >= 1
		})
		healthy := startChaosWorker(t, srv.URL, "healthy", store, engOpts, nil, throttle)
		wg.Add(1)
		go func() { defer wg.Done(); _ = healthy.Run(ctx) }()

		waitFor(t, 60*time.Second, "job never completed", func() bool {
			st, ok := c.JobStatusByID("chaos")
			if ok && st.State == "failed" {
				t.Fatalf("job failed: %s", st.Error)
			}
			return ok && st.State == "done"
		})

		// Let the zombie finish its stalled task and fire the late report
		// before asserting: its fence is the heart of the scenario.
		waitFor(t, 30*time.Second, "zombie report never fenced", func() bool {
			return zombie.Fenced() >= 1 || zombie.Lost() >= 1
		})
		cancelAll()
		wg.Wait()

		st, _ := c.JobStatusByID("chaos")
		if st.Ordered != want {
			t.Errorf("ordered = %d, want %d: a dropped or double-merged task", st.Ordered, want)
		}
		if auto := uint64(st.Automorphisms); st.Unique != want/auto {
			t.Errorf("unique = %d, want %d", st.Unique, want/auto)
		}
		if st.Reassigned == 0 {
			t.Error("no lease was reassigned — the kill never engaged")
		}
		if st.Fenced == 0 && zombie.Lost() == 0 {
			t.Error("the zombie was neither fenced nor told the lease was lost")
		}
		if killPT.Dropped() == 0 {
			t.Error("the killed worker's partition swallowed nothing")
		}
	})
}

// startChaosWorker builds a Worker with an optional partitionable transport
// and an embedding hook.
func startChaosWorker(t *testing.T, url, name string, store *dal.Store, opts engine.Options, pt *faultinject.PartitionTransport, onEmbedding func([]uint32)) *Worker {
	t.Helper()
	client := http.DefaultClient
	if pt != nil {
		client = &http.Client{Transport: pt}
	}
	w, err := NewWorker(WorkerConfig{
		Coordinator: url,
		Name:        name,
		Store:       store,
		Client:      client,
		Poll:        10 * time.Millisecond,
		Engine:      opts,
		OnEmbedding: onEmbedding,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("worker %s: %v", name, err)
	}
	return w
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, limit time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitForJobDone polls the job status endpoint through the default client
// (bypassing any partitioned transport) until the job leaves the running
// state. It runs on an engine worker goroutine, so failures use Error, and
// the deadline guarantees the suite never deadlocks on a broken scenario.
func waitForJobDone(t *testing.T, url, job string, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(url + "/cluster/jobs/" + job)
		if err == nil {
			var st JobStatus
			derr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if derr == nil && st.State != "running" {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Errorf("job %q still running after %v; healing the zombie anyway", job, limit)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
