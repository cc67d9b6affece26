// Command ohmworker runs one node of the distributed mining cluster: it
// loads (or generates) its own copy of the data hypergraph, then leases task
// ranges from an ohmserve coordinator (-cluster), mines them with the local
// engine, heartbeats while mining, and reports per-task counters back for
// exactly-once merging.
//
//	ohmserve  -cluster -dataset SB -addr :8080
//	ohmworker -coordinator http://localhost:8080 -dataset SB
//	ohmworker -coordinator http://localhost:8080 -dataset SB -name w2
//
// Every worker must load the identical dataset — the coordinator verifies a
// content fingerprint on each lease request and refuses mismatches.
//
// On SIGINT/SIGTERM the worker stops taking leases and drains: the in-flight
// task reports its partial count plus its unfinished frontier, which the
// coordinator re-enqueues for another worker, so a scaled-down node loses no
// work.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ohminer"
	"ohminer/internal/cliio"
	"ohminer/internal/cluster"
	"ohminer/internal/engine"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ohmworker:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		coord    = flag.String("coordinator", "", "coordinator base URL (the ohmserve -cluster instance), e.g. http://host:8080")
		input    = flag.String("input", "", "data hypergraph file (text format; must match the coordinator's)")
		dataset  = flag.String("dataset", "", "generate a Table 3 preset instead of reading a file (must match the coordinator's)")
		name     = flag.String("name", "", "worker name in leases and cluster status (default: host-pid)")
		workers  = flag.Int("workers", 0, "engine worker goroutines per task (0 = GOMAXPROCS)")
		poll     = flag.Duration("poll", 500*time.Millisecond, "seed of the error backoff (an idle worker does not poll: its lease request waits on the coordinator); also the floor between lease requests against a coordinator that answers \"no work\" at once")
		reqTO    = flag.Duration("request-timeout", 5*time.Second, "per-request deadline on every coordinator round trip (a hung socket must not stall heartbeats past the lease TTL)")
		maxBO    = flag.Duration("max-backoff", 30*time.Second, "cap on the jittered exponential backoff after transient coordinator errors")
		throttle = flag.Duration("throttle", 0, "busy-wait per embedding (test/smoke knob to stretch small workloads; 0 in production)")
	)
	flag.Parse()

	if *coord == "" {
		return fmt.Errorf("need -coordinator URL")
	}
	h, err := cliio.LoadData(*input, *dataset)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "ohmworker: data:", h)
	store := ohminer.NewStore(h)
	fmt.Fprintf(os.Stderr, "ohmworker: dal built in %v (%.1f MB)\n",
		store.BuildTime().Round(time.Millisecond), float64(store.MemoryBytes())/(1<<20))

	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	cfg := cluster.WorkerConfig{
		Coordinator:    *coord,
		Name:           *name,
		Store:          store,
		Poll:           *poll,
		RequestTimeout: *reqTO,
		MaxBackoff:     *maxBO,
		Engine:         engine.Options{Workers: *workers},
		Logf: func(format string, args ...any) {
			// One line per protocol event; the smoke test watches for
			// "lease " to know a worker holds a task.
			fmt.Fprintf(os.Stderr, "ohmworker: "+format+"\n", args...)
		},
	}
	if *throttle > 0 {
		d := *throttle
		cfg.OnEmbedding = func([]uint32) {
			end := time.Now().Add(d)
			for time.Now().Before(end) {
			}
		}
	}
	w, err := cluster.NewWorker(cfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "ohmworker: %s polling %s\n", *name, *coord)
	err = w.Run(ctx)
	if errors.Is(err, context.Canceled) {
		// Signal-driven drain: the in-flight task (if any) already reported
		// its partial count and remainder.
		fmt.Fprintf(os.Stderr, "ohmworker: drained cleanly (leases=%d done=%d partial=%d lost=%d)\n",
			w.Leases(), w.Completed(), w.Partial(), w.Lost())
		return nil
	}
	return err
}
