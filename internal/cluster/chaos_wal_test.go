package cluster

// WAL chaos: a durable coordinator is killed (or suffers a torn append) after
// its k-th logged record while three real workers are mid-job; a second
// coordinator recovers from the same directory and takes over behind the same
// URL — and the final count must still be exact. This is the whole durability
// story end to end: the crashed coordinator sheds everything it cannot
// persist, the replacement replays admit/grant/report records, force-expires
// the orphaned leases with their epochs intact, and either salvages the
// original workers' late reports or fences them while the task is redone.
//
// Runs race-instrumented via `make chaos`.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ohminer/internal/engine"
	"ohminer/internal/faultinject"
)

func TestChaosWALCoordinatorKillRestart(t *testing.T) {
	for _, fault := range []string{"kill", "torn"} {
		t.Run("split=0/"+fault, func(t *testing.T) {
			store, pat, want := starWorkload(t)
			dir := t.TempDir()

			// Crash after the k-th append: append 1 is the job admit, so
			// k >= 3 guarantees the job plus at least two grants are on
			// disk, and the appends of a full run (1 admit + the workers'
			// 3 first grants + 8 reports, 5 of them carrying the next
			// grant, + 1 finish) keep every k mid-job.
			k := 3 + int(faultinject.Derive(0, "wal-"+fault, 4))
			crashed := make(chan struct{})
			var wrap func(io.Writer) io.Writer
			switch fault {
			case "kill":
				cw := &faultinject.CrashWriter{After: k, OnCrash: func() { close(crashed) }}
				wrap = func(w io.Writer) io.Writer { cw.W = w; return cw }
			case "torn":
				// No hook on TornWriter: the tear is observed through the
				// coordinator degrading (the rolled-back append sticks as
				// its shed cause).
				tw := &faultinject.TornWriter{At: k, KeepBytes: 7}
				wrap = func(w io.Writer) io.Writer { tw.W = w; return tw }
			}

			cfg := Config{LeaseTTL: 2 * time.Second, Parts: 8}
			c1cfg := cfg
			c1cfg.Dir = dir
			c1cfg.WALWrap = wrap
			c1, err := New(store, c1cfg)
			if err != nil {
				t.Fatalf("first coordinator: %v", err)
			}
			t.Cleanup(func() { c1.Close() })

			// The workers see one stable URL; the handler behind it is
			// swapped to the replacement coordinator after the crash,
			// standing in for the restarted process re-binding its port.
			var handler atomic.Value
			mux1 := http.NewServeMux()
			c1.Register(mux1)
			handler.Store(http.Handler(mux1))
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				handler.Load().(http.Handler).ServeHTTP(w, r)
			}))
			t.Cleanup(srv.Close)

			if _, err := c1.StartJob("chaos", JobSpec{Pattern: pat}); err != nil {
				t.Fatalf("start job: %v", err)
			}

			engOpts := engine.Options{Workers: 2}
			throttle := faultinject.SlowEmbedding(100 * time.Microsecond)
			ctx, cancelAll := context.WithCancel(context.Background())
			defer cancelAll()
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				w := startChaosWorker(t, srv.URL, fmt.Sprintf("w%d", i), store, engOpts, nil, throttle)
				wg.Add(1)
				go func() { defer wg.Done(); _ = w.Run(ctx) }()
			}

			// Wait for the fault to engage. The kill signals the moment
			// the k-th record is durable; the tear is visible as the
			// coordinator degrading.
			switch fault {
			case "kill":
				select {
				case <-crashed:
				case <-time.After(30 * time.Second):
					t.Fatal("the WAL crash point never fired")
				}
			case "torn":
				waitFor(t, 30*time.Second, "the torn append never degraded the coordinator", func() bool {
					return c1.Degraded()
				})
			}

			// The replacement coordinator recovers from the same directory
			// (no fault writer this time) and takes over the URL. The dead
			// one keeps answering until the swap — shedding 503s, exactly
			// like a process that lost its disk.
			c2cfg := cfg
			c2cfg.Dir = dir
			c2, err := New(store, c2cfg)
			if err != nil {
				t.Fatalf("recovering coordinator: %v", err)
			}
			t.Cleanup(func() { c2.Close() })
			st2 := c2.Status()
			if st2.ReplayedJobs < 1 {
				t.Fatalf("replacement replayed %d jobs, want the admitted one", st2.ReplayedJobs)
			}
			mux2 := http.NewServeMux()
			c2.Register(mux2)
			handler.Store(http.Handler(mux2))

			waitFor(t, 60*time.Second, "job never completed after coordinator restart", func() bool {
				st, ok := c2.JobStatusByID("chaos")
				if ok && st.State == "failed" {
					t.Fatalf("job failed: %s", st.Error)
				}
				return ok && st.State == "done"
			})
			cancelAll()
			wg.Wait()

			st, _ := c2.JobStatusByID("chaos")
			if st.Ordered != want {
				t.Errorf("ordered = %d, want %d: the restart dropped or double-merged a task", st.Ordered, want)
			}
			if auto := uint64(st.Automorphisms); st.Unique != want/auto {
				t.Errorf("unique = %d, want %d", st.Unique, want/auto)
			}
		})
	}
}
