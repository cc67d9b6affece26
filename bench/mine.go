package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ohminer"
	"ohminer/internal/engine"
)

// mineOp is one op of a mine workload: one Mine call and the counts it must
// return.
type mineOp struct {
	name    string
	p       *ohminer.Pattern
	ordered uint64
	unique  uint64
	noSym   bool // WithoutSymmetryBreaking
}

func (op mineOp) options(extra ...ohminer.Option) []ohminer.Option {
	opts := []ohminer.Option{ohminer.WithWorkers(1)}
	if op.noSym {
		opts = append(opts, ohminer.WithoutSymmetryBreaking())
	}
	return append(opts, extra...)
}

func (op mineOp) check(res ohminer.Result) bool {
	return !res.Truncated && res.Ordered == op.ordered && res.Unique == op.unique
}

// mineInst replays a script of Mine calls on one store. Mine keeps no state
// between calls, so every round starts fresh by construction.
type mineInst struct {
	ds  *dataset
	ops []mineOp

	// Sums over the last round, for the per-layer metrics.
	stats   ohminer.Stats
	elapsed time.Duration
	ordered uint64
	planOps int
	restr   int
}

func (in *mineInst) round(tr *tracer) (roundOut, error) {
	out := newRoundOut(len(in.ops))
	in.stats, in.elapsed, in.ordered, in.planOps, in.restr = ohminer.Stats{}, 0, 0, 0, 0
	for i, op := range in.ops {
		var res ohminer.Result
		var err error
		t0 := startOp()
		if tr == nil {
			res, err = ohminer.Mine(in.ds.store, op.p, op.options()...)
		} else {
			res, err = in.tracedMine(tr, i, op)
		}
		out.stop(i, t0)
		if err != nil {
			return out, fmt.Errorf("op %d (%s): %w", i, op.name, err)
		}
		if !op.check(res) {
			out.failed++
		}
		in.stats.Add(res.Stats)
		in.elapsed += res.Elapsed
		in.ordered += res.Ordered
		for _, n := range res.Plan.NumOps() {
			in.planOps += n
		}
		if res.Restricted {
			in.restr++
		}
	}
	return out, nil
}

// tracedMine is Mine taken apart: the compiler and the engine called one
// after the other, with a span around each.
func (in *mineInst) tracedMine(tr *tracer, i int, op mineOp) (ohminer.Result, error) {
	o := engine.Options{Workers: 1, NoSymmetryBreak: op.noSym}
	root := tr.begin("bench.op", rootSpan, i)
	tr.label(root, op.name)
	defer tr.end(root)
	sp := tr.begin("oig.compile", root, i)
	plan, err := engine.CompilePlan(in.ds.store, op.p, o)
	tr.end(sp)
	if err != nil {
		return ohminer.Result{}, err
	}
	sp = tr.begin("engine.mine", root, i)
	res, err := engine.MineWithPlanContext(context.Background(), in.ds.store, plan, o)
	tr.end(sp)
	return res, err
}

// pass replays the script once with extra options and returns the summed
// engine counters and mining time.
func (in *mineInst) pass(extra ...ohminer.Option) (ohminer.Stats, time.Duration, error) {
	var st ohminer.Stats
	var elapsed time.Duration
	for i, op := range in.ops {
		res, err := ohminer.Mine(in.ds.store, op.p, op.options(extra...)...)
		if err != nil {
			return st, 0, fmt.Errorf("op %d (%s): %w", i, op.name, err)
		}
		if !op.check(res) {
			return st, 0, fmt.Errorf("op %d (%s): counted %d ordered / %d unique, want %d / %d",
				i, op.name, res.Ordered, res.Unique, op.ordered, op.unique)
		}
		st.Add(res.Stats)
		elapsed += res.Elapsed
	}
	return st, elapsed, nil
}

func (in *mineInst) layers(tr *tracer, m metrics) error {
	in.ds.metrics(m)
	m["oig.compile_us"] = us(median(tr.durations("oig.compile")))
	m["oig.plan_ops"] = float64(in.planOps)
	m["oig.restricted_share"] = float64(in.restr) / float64(len(in.ops))

	// Kernel counters, embeddings and mining time come from the last
	// (traced) round; candidates, set operations and the generation and
	// validation shares need the engine's own timers, which slow it down, so
	// they come from a second, instrumented pass.
	st, w1 := in.stats, in.elapsed
	inst, _, err := in.pass(ohminer.WithInstrumentation())
	if err != nil {
		return err
	}
	st.Candidates, st.SetOps, st.GenTime, st.ValTime = inst.Candidates, inst.SetOps, inst.GenTime, inst.ValTime
	engineMetrics(st, in.ordered, w1, m)

	// The scheduler only has something to do with two workers on two CPUs.
	// This VM's second CPU is not always there, so par_eff is a reading, not
	// a gated number.
	prev := runtime.GOMAXPROCS(2)
	two, w2, err := in.pass(ohminer.WithWorkers(2))
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	m["engine.w1_ms"] = ms(w1)
	m["engine.par_eff"] = float64(w1) / float64(2*w2)
	m["engine.steals"] = float64(two.Steals)
	m["engine.publishes"] = float64(two.Publishes)
	m["engine.idle_spins"] = float64(two.IdleSpins)
	return nil
}

func (in *mineInst) close() error { return nil }

// setupMineSparse builds the TC preset and the workload's 100 sampled
// patterns, written with the seed's vertex names and replayed in the seed's
// order.
func setupMineSparse(e *env) (instance, error) {
	ds, err := presetDataset(e, "TC")
	if err != nil {
		return nil, err
	}
	ops, err := catalogOps("mine_sparse", e, 5)
	if err != nil {
		return nil, err
	}
	return &mineInst{ds: ds, ops: ops}, nil
}

// catalogOps turns a workload's catalogue into its op script.
func catalogOps(name string, e *env, tinyN int) ([]mineOp, error) {
	cat, err := loadCatalog()
	if err != nil {
		return nil, err
	}
	entries, err := cat.entries(name, e, tinyN)
	if err != nil {
		return nil, err
	}
	rng := rngFor(e.seed, name)
	ops := make([]mineOp, len(entries))
	for i, ce := range entries {
		lit, err := renameVertices(ce.Pattern, rng)
		if err != nil {
			return nil, fmt.Errorf("catalog %s[%d]: %w", name, i, err)
		}
		p, err := ohminer.ParsePattern(lit)
		if err != nil {
			return nil, fmt.Errorf("catalog %s[%d]: %w", name, i, err)
		}
		ops[i] = mineOp{name: lit, p: p, ordered: ce.Ordered, unique: ce.Unique}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, nil
}
