// Command ohmserve runs the OHMiner query service: an HTTP server that
// answers hypergraph-pattern-mining queries over one data hypergraph,
// with plan caching, per-request timeouts/limits, admission control,
// expvar metrics, pprof, and graceful drain on SIGINT/SIGTERM.
//
//	ohmserve -dataset SB -addr :8080
//	ohmserve -input data.hg -max-concurrent 16 -timeout 5s
//
//	curl -s localhost:8080/query -d '{"pattern": "0 1 2; 2 3 4"}'
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/debug/vars
//
// With -checkpoint-dir D the server also runs durable jobs (POST /jobs): it
// is a cluster coordinator with its WAL in D (-cluster -cluster-dir D) plus
// one cluster worker, "local", inside this process, which dials the
// listener over loopback and mines one lease at a time with -workers
// engine threads. A restart on D resumes every running job by itself.
//
// On SIGINT/SIGTERM the in-process worker stops first and hands its
// unfinished lease back, then the listener closes, in-flight queries
// drain (each bounded by its own deadline) up to -drain, and anything
// still running after that is cancelled through the engine's context
// path before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ohminer"
	"ohminer/internal/cliio"
	"ohminer/internal/cluster"
	"ohminer/internal/engine"
	"ohminer/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ohmserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		input      = flag.String("input", "", "data hypergraph file (text format)")
		dataset    = flag.String("dataset", "", "generate a Table 3 preset instead of reading a file (CH,CP,SB,HB,WT,TC,CD,AM,SYN)")
		maxConc    = flag.Int("max-concurrent", 0, "queries mining at once before admission queues (0 = 2×GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 10*time.Second, "default per-query timeout (requests may lower or raise it up to -max-timeout)")
		maxTimeout = flag.Duration("max-timeout", 2*time.Minute, "cap on per-request timeouts")
		maxLimit   = flag.Uint64("max-limit", 0, "cap on per-request embedding limits (0 = uncapped)")
		workers    = flag.Int("workers", 0, "engine workers per query, and for the in-process job worker (0 = GOMAXPROCS)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight queries")
		debugDelay = flag.Duration("debug-delay", 0, "inject artificial latency per query (drain/smoke testing only)")
		ckptDir    = flag.String("checkpoint-dir", "", "enable durable jobs (/jobs endpoints): -cluster -cluster-dir DIR plus one in-process worker")
		streamDir  = flag.String("stream-dir", "", "enable the streaming subsystem (/streams endpoints): persist each stream's base snapshot and batch log here")
		streamBuf  = flag.Int("stream-buf-events", 0, "per-subscriber event buffer before slow-consumer drops (0 = 64)")
		clusterOn  = flag.Bool("cluster", false, "run as distributed-mining coordinator (/cluster endpoints; pair with ohmworker)")
		parts      = flag.Int("cluster-parts", 16, "task partitions per distributed job (more parts = finer reassignment granularity)")
		leaseTTL   = flag.Duration("lease-ttl", 10*time.Second, "cluster lease deadline: a worker missing heartbeats this long forfeits its task")
		clusterDir = flag.String("cluster-dir", "", "make the coordinator durable: WAL + snapshot of cluster state here, replayed on restart so running jobs survive a coordinator crash")
	)
	flag.Parse()
	if *ckptDir != "" {
		if *clusterDir != "" && filepath.Clean(*clusterDir) != filepath.Clean(*ckptDir) {
			return fmt.Errorf("-checkpoint-dir %s and -cluster-dir %s name different directories: jobs keep their state in one", *ckptDir, *clusterDir)
		}
		if err := serve.CheckJobDir(*ckptDir); err != nil {
			return err
		}
		*clusterOn, *clusterDir = true, *ckptDir
	}

	h, err := cliio.LoadData(*input, *dataset)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "ohmserve: data:", h)

	store := ohminer.NewStore(h)
	fmt.Fprintf(os.Stderr, "ohmserve: dal built in %v (%.1f MB)\n",
		store.BuildTime().Round(time.Millisecond), float64(store.MemoryBytes())/(1<<20))

	cfg := serve.Config{
		MaxConcurrent:   *maxConc,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		MaxLimit:        *maxLimit,
		Workers:         *workers,
		DebugDelay:      *debugDelay,
		StreamDir:       *streamDir,
		StreamBufEvents: *streamBuf,
	}
	if *streamDir != "" {
		if err := os.MkdirAll(*streamDir, 0o755); err != nil {
			return fmt.Errorf("stream dir: %w", err)
		}
		// The stream smoke test parses this line.
		fmt.Fprintf(os.Stderr, "ohmserve: streams durable in %s (every acknowledged batch logged)\n", *streamDir)
	}
	if *clusterOn {
		coord, err := cluster.New(store, cluster.Config{
			LeaseTTL: *leaseTTL,
			Parts:    *parts,
			Dir:      *clusterDir,
		})
		if err != nil {
			return fmt.Errorf("cluster coordinator: %w", err)
		}
		defer coord.Close()
		cfg.Cluster = coord
		fmt.Fprintf(os.Stderr, "ohmserve: cluster coordinator enabled (parts=%d, lease-ttl=%v)\n", *parts, *leaseTTL)
		if *clusterDir != "" {
			st := coord.Status()
			// The smoke test parses this line after a coordinator restart.
			fmt.Fprintf(os.Stderr, "ohmserve: cluster state durable in %s (replayed jobs=%d, resurrected leases=%d)\n",
				*clusterDir, st.ReplayedJobs, st.ResurrectedLeases)
		}
	} else if *clusterDir != "" {
		return fmt.Errorf("-cluster-dir requires -cluster")
	}
	srv := serve.New(ohminer.NewSession(store), cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The smoke test parses this line to discover the port chosen for :0.
	fmt.Fprintf(os.Stderr, "ohmserve: listening on %s\n", ln.Addr())

	// The in-process job worker dials the listener (an unspecified listen
	// address dials the local system). workerDone closes when Run returns.
	workerCtx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	var workerDone chan struct{}
	if *ckptDir != "" {
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Coordinator: "http://" + ln.Addr().String(),
			Name:        "local",
			Store:       store,
			Engine:      engine.Options{Workers: *workers},
		})
		if err != nil {
			return err
		}
		workerDone = make(chan struct{})
		go func() {
			defer close(workerDone)
			if err := w.Run(workerCtx); workerCtx.Err() == nil {
				fmt.Fprintln(os.Stderr, "ohmserve: in-process worker stopped, jobs will not progress:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "ohmserve: durable jobs in %s (in-process worker \"local\")\n", *ckptDir)
	}

	hs := &http.Server{Handler: srv.Handler()}
	// Long-lived event subscriptions (SSE) would hold Shutdown open past
	// its drain budget; disconnect them as soon as the drain begins.
	// Subscribers reconnect with ?after=N and lose nothing.
	hs.RegisterOnShutdown(srv.DisconnectStreams)
	// After the drain, close the streams' log files; every acknowledged
	// batch is on disk already.
	defer srv.CloseStreams()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Fprintf(os.Stderr, "ohmserve: shutting down, draining in-flight queries (budget %v)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if workerDone != nil {
		// The worker stops first: its in-flight lease reports its remainder
		// over the still-open listener.
		stopWorker()
		select {
		case <-workerDone:
		case <-drainCtx.Done():
			fmt.Fprintln(os.Stderr, "ohmserve: in-process worker did not hand its lease back within the drain budget; the lease expires and is mined again")
		}
	}
	if err := hs.Shutdown(drainCtx); err != nil {
		// Drain budget exceeded: cancel the miners through the engine's
		// context path, then close the remaining connections.
		fmt.Fprintln(os.Stderr, "ohmserve: drain budget exceeded, cancelling in-flight queries")
		srv.Abort()
		if cerr := hs.Close(); cerr != nil && !errors.Is(err, context.DeadlineExceeded) {
			return cerr
		}
		return err
	}
	fmt.Fprintln(os.Stderr, "ohmserve: drained cleanly, bye")
	return nil
}
