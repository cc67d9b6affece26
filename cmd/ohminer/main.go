// Command ohminer mines one pattern in one data hypergraph.
//
// The data hypergraph comes either from a file (-input, text format: one
// hyperedge per line) or from a Table 3 preset (-dataset). The pattern is a
// literal (-pattern "0 1 2; 2 3 4"), or sampled from the data (-sample N).
//
//	ohminer -dataset SB -sample 3
//	ohminer -input data.hg -pattern "0 1 2; 2 3; 3 4 5" -variant HGMatch
//	ohminer -dataset WT -sample 4 -workers 8 -v
//
// -variant and -kernel other than the defaults run one of the paper's
// comparison systems in internal/baseline: it counts and times, and takes
// only -workers, -timeout and -plan of the options below.
//
// Long runs can checkpoint: -checkpoint FILE snapshots the exact search
// frontier periodically (atomic replace), and -resume continues a run from
// that snapshot with exactly-once counting. A run cut short by Ctrl-C exits
// 130 and one cut short by -timeout exits 124 — both after reporting their
// partial counts — so scripts can tell "finished" from "truncated" without
// parsing output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ohminer/internal/baseline"
	"ohminer/internal/checkpoint"
	"ohminer/internal/cliio"
	"ohminer/internal/dal"
	"ohminer/internal/durable"
	"ohminer/internal/engine"
	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
	"ohminer/internal/pattern"
)

// Distinct exit codes for truncated runs, following the shell convention
// (128+SIGINT for interrupts, timeout(1)'s 124 for expired deadlines).
const (
	exitInterrupted = 130
	exitDeadline    = 124
)

// errInterrupted/errDeadline tag a run that reported partial counts; main
// maps them to exit codes after output is flushed.
var (
	errInterrupted = errors.New("interrupted")
	errDeadline    = errors.New("deadline exceeded")
)

func main() {
	switch err := run(); {
	case err == nil:
	case errors.Is(err, errInterrupted):
		os.Exit(exitInterrupted)
	case errors.Is(err, errDeadline):
		os.Exit(exitDeadline)
	default:
		fmt.Fprintln(os.Stderr, "ohminer:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		input    = flag.String("input", "", "data hypergraph file (text format)")
		dataset  = flag.String("dataset", "", "generate a Table 3 preset instead of reading a file (CH,CP,SB,HB,WT,TC,CD,AM,SYN)")
		patLit   = flag.String("pattern", "", "pattern literal, e.g. \"0 1 2; 2 3 4\"")
		sampleN  = flag.Int("sample", 0, "sample a pattern with this many hyperedges from the data")
		dense    = flag.Bool("dense", false, "with -sample: require every hyperedge pair to overlap")
		variant  = flag.String("variant", "OHMiner", "OHMiner (the production engine), or a baseline to run in its place: OHM-G, OHM-V, OHM-I, HGMatch")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		kern     = flag.String("kernel", "adaptive", "adaptive (production's density-aware containers), or a baseline run on another set-kernel family: fast (static gallop), scalar (no-SIMD ablation)")
		limit    = flag.Uint64("limit", 0, "stop after this many ordered embeddings (0 = all)")
		seed     = flag.Int64("seed", 1, "sampling seed")
		showPlan = flag.Bool("plan", false, "print the compiled execution plan")
		verbose  = flag.Bool("v", false, "print embeddings (hyperedge IDs in matching order)")
		estimate = flag.Float64("estimate", 0, "approximate the count by mining this fraction (0,1) of first-edge subtrees")
		timeout  = flag.Duration("timeout", 0, "cancel mining after this long and report the partial counts (0 = none)")
		ckptPath = flag.String("checkpoint", "", "snapshot the search frontier to FILE periodically; removed on clean completion")
		ckptInt  = flag.Duration("checkpoint-every", 30*time.Second, "snapshot period for -checkpoint")
		resume   = flag.Bool("resume", false, "continue from the -checkpoint snapshot instead of starting over")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancels the run through the engine's context path:
	// partial counts are reported instead of the process dying mid-mine.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Results go to stdout through an error-latching writer: a broken
	// pipe or full disk must fail the run, not truncate it silently.
	out := cliio.NewWriter(os.Stdout)

	var (
		h   *hypergraph.Hypergraph
		err error
	)
	switch {
	case *input != "" && *dataset != "":
		return fmt.Errorf("-input and -dataset are mutually exclusive")
	case *input != "":
		h, err = hypergraph.Load(*input)
	case *dataset != "":
		var p gen.Preset
		if p, err = gen.PresetByTag(*dataset); err == nil {
			h, err = gen.Generate(p.Config)
		}
	default:
		return fmt.Errorf("need -input FILE or -dataset TAG")
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "data:", h)

	t0 := time.Now()
	store := dal.Build(h)
	fmt.Fprintf(os.Stderr, "dal: built in %v (%.1f MB)\n", store.BuildTime().Round(time.Millisecond), float64(store.MemoryBytes())/(1<<20))
	_ = t0

	var p *pattern.Pattern
	switch {
	case *patLit != "" && *sampleN > 0:
		return fmt.Errorf("-pattern and -sample are mutually exclusive")
	case *patLit != "":
		p, err = pattern.Parse(*patLit)
	case *sampleN > 0:
		rng := rand.New(rand.NewSource(*seed))
		if *dense {
			p, err = pattern.SampleDense(h, *sampleN, *sampleN, 64, rng)
		} else {
			p, err = pattern.Sample(h, *sampleN, *sampleN, 64, rng)
		}
	default:
		return fmt.Errorf("need -pattern LITERAL or -sample N")
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pattern: %s (%d hyperedges, %d vertices)\n", p, p.NumEdges(), p.NumVertices())

	v, err := baseline.VariantByName(*variant)
	if err != nil {
		return err
	}
	kernel, err := baseline.KernelByName(*kern)
	if err != nil {
		return fmt.Errorf("unknown -kernel %q (have adaptive, fast, scalar)", *kern)
	}
	// Any variant or kernel but production's is one of the paper's
	// comparison systems, run by internal/baseline.
	compare := v.Name != "OHMiner" || kernel.Name != "adaptive"
	if compare && (*limit > 0 || *verbose || *estimate > 0 || *ckptPath != "" || *resume) {
		return fmt.Errorf("-limit, -v, -estimate, -checkpoint and -resume need the production engine (-variant OHMiner -kernel adaptive)")
	}
	opts := engine.Options{Workers: *workers, Limit: *limit}
	if *verbose {
		opts.OnEmbedding = func(c []uint32) { out.Println(c) }
	}
	if *resume && *ckptPath == "" {
		return fmt.Errorf("-resume needs -checkpoint FILE")
	}
	if *ckptPath != "" {
		if *estimate > 0 {
			return fmt.Errorf("-checkpoint does not apply to -estimate runs")
		}
		opts.Checkpoint = &durable.FileSink[*checkpoint.Snapshot]{Path: *ckptPath}
		opts.CheckpointEvery = *ckptInt
	}
	if *estimate > 0 {
		est, err := engine.EstimateCount(store, p, *estimate, *seed, opts)
		if err != nil {
			return err
		}
		out.Printf("estimate: ordered≈%.0f (±%.0f stderr) unique≈%.0f from %d/%d roots in %v\n",
			est.Ordered, est.StdErr, est.Unique, est.SampledRoots, est.TotalRoots,
			est.Elapsed.Round(time.Microsecond))
		return out.Close()
	}
	var res engine.Result
	if compare {
		var b baseline.Result
		b, err = baseline.Mine(ctx, store, p, baseline.Options{
			Gen: v.Gen, Val: v.Val, Kernel: kernel, Workers: *workers,
		})
		res = engine.Result{Ordered: b.Ordered, Unique: b.Unique, Automorphisms: b.Automorphisms, Elapsed: b.Elapsed, Plan: b.Plan}
	} else if *resume {
		snap, rerr := checkpoint.ReadFile(*ckptPath)
		if rerr != nil {
			return fmt.Errorf("resume: %w", rerr)
		}
		fmt.Fprintf(os.Stderr, "resume: snapshot seq=%d ordered=%d frontier=%d tasks\n",
			snap.Seq, snap.Ordered, len(snap.Frontier))
		res, err = engine.ResumeFromCheckpoint(ctx, store, p, snap, opts)
	} else {
		res, err = engine.MineContext(ctx, store, p, opts)
	}
	var truncCause error
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			truncCause = errDeadline
		case errors.Is(err, context.Canceled):
			truncCause = errInterrupted
		default:
			return err
		}
		fmt.Fprintf(os.Stderr, "ohminer: %v — partial counts follow\n", err)
	}
	if *showPlan {
		fmt.Fprintf(os.Stderr, "%s", res.Plan)
	}
	out.Printf("variant=%s kernel=%s ordered=%d unique=%d automorphisms=%d elapsed=%v\n",
		v.Name, kernel.Name, res.Ordered, res.Unique, res.Automorphisms, res.Elapsed.Round(time.Microsecond))
	if s := res.Stats; s.Publishes > 0 || s.Steals > 0 {
		out.Printf("scheduler: publishes=%d steals=%d idle-spins=%d\n", s.Publishes, s.Steals, s.IdleSpins)
	}
	if s := res.Stats; s.KernelArray+s.KernelBitmap+s.KernelMixed > 0 {
		out.Printf("set-ops: array=%d bitmap=%d mixed=%d\n", s.KernelArray, s.KernelBitmap, s.KernelMixed)
	}
	if s := res.Stats; s.Checkpoints > 0 || s.CheckpointErrors > 0 {
		out.Printf("checkpoints: written=%d bytes=%d errors=%d\n", s.Checkpoints, s.CheckpointBytes, s.CheckpointErrors)
	}
	if cerr := out.Close(); cerr != nil {
		return cerr
	}
	if truncCause != nil {
		if *ckptPath != "" {
			fmt.Fprintf(os.Stderr, "ohminer: snapshot retained at %s — rerun with -resume to continue\n", *ckptPath)
		}
		return truncCause
	}
	if *ckptPath != "" {
		// Clean completion: the rolling snapshot has nothing left to resume.
		os.Remove(*ckptPath)
	}
	return nil
}
