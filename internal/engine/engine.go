// Package engine implements the overlap-centric parallel execution engine
// of Sec. 4.4 in its one production configuration: candidates come from the
// DAL's degree-pruned adjacency groups (Sec. 4.5), the merged overlap-centric
// plan's conditions (Sec. 4) filter each step's candidate list (cond.go), and
// every set operation runs on the density-adaptive intset kernels — or, where
// an operand stays fixed across an inner loop (a parent list, a node's Disc
// groups, a condition's overlap without a bitmap window), probes a mark of it,
// a bitmap over the hyperedge or vertex IDs built once per binding of what it
// reads. The systems the paper compares against and ablates into (HGMatch,
// OHM-G/V/I), the scalar and static-gallop kernel
// families and the paper's first-level scheduler live in internal/baseline,
// which the experiments and the differential tests run beside this package;
// nothing here selects among them.
//
// The engine explores the search tree depth-first. Subtree tasks (a bound
// prefix plus a remaining candidate range) are distributed over worker
// goroutines by a work-stealing scheduler (scheduler.go): busy workers
// publish untouched sibling ranges near the top of the tree and idle workers
// steal them, generalizing the paper's first-level dynamic scheduling so
// skewed subtrees no longer serialize. Each worker owns all its scratch
// state, so the steady-state hot path allocates nothing; a mark is allocated
// on its first use, at most once per worker.
package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ohminer/internal/checkpoint"
	"ohminer/internal/dal"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
	"ohminer/internal/sig"
)

// Options configures a mining run.
type Options struct {
	// Workers is the goroutine count; ≤0 means GOMAXPROCS.
	Workers int
	// Instrument enables the Candidates/Embeddings counters and the
	// GenTime/ValTime phase timers of Stats (adds measurable overhead).
	Instrument bool
	// Limit stops the exploration once at least this many embeddings were
	// enumerated (0 = unlimited): ordered tuples on an unrestricted plan,
	// one canonical tuple per unordered embedding on a symmetry-broken one.
	// The final count may slightly exceed Limit because workers stop at the
	// next check.
	Limit uint64
	// OnEmbedding, when set, receives every enumerated embedding (hyperedge
	// IDs in matching order). On a symmetry-broken plan the engine
	// enumerates exactly one canonical tuple per unordered embedding, so
	// the callback fires once per unique embedding; compile with
	// NoSymmetryBreak to observe every ordered tuple. Calls are serialized
	// by the engine; the slice is reused and must be copied to retain.
	OnEmbedding func([]uint32)
	// NoSymmetryBreak compiles the plan without symmetry-breaking
	// restrictions, so every ordered tuple is enumerated — |Aut(P)| per
	// unordered embedding. The ablation baseline of the sym experiment;
	// also what OnEmbedding consumers that need all orderings should set.
	// Only consulted by the plan-compiling entry points (Mine/MineContext/
	// CompilePlan); MineWithPlanContext follows the plan it is given.
	NoSymmetryBreak bool
	// PositionFilter, when set, restricts which data hyperedge may bind to
	// each matching-order position, given the anchor: the hyperedge bound at
	// position 0 (the edge itself at position 0). Anchored enumeration; the
	// stream miner uses it to count each embedding that touches a changed
	// hyperedge in exactly one run.
	PositionFilter func(pos int, edge, anchor uint32) bool
	// Checkpoint, when set, makes the run crash-safe: on the CheckpointEvery
	// timer — and on every final stop (the context done, or the limit) — the
	// driver quiesces the workers at their per-candidate stop check,
	// captures the global frontier of unexplored subtree tasks together
	// with the partial counters, and hands the snapshot to the sink. Sink
	// failures are counted in Stats.CheckpointErrors and do not abort the
	// run (the previous snapshot stays intact); mining continues or
	// finishes as it would have.
	Checkpoint checkpoint.Sink
	// CheckpointEvery is the quiesce period (0 = only on final stops).
	// Ignored without Checkpoint.
	CheckpointEvery time.Duration
}

// Stats carries the engine's instrumentation counters. (The HGMatch
// redundancy counters of Fig. 3(b,c) are internal/baseline's.)
type Stats struct {
	// Candidates counts what candidate generation yields at every node of a
	// step's chain: its parent's list, or its first DAL group, intersected
	// with the Conn group it adds, before Disc groups, conditions,
	// restrictions and per-candidate tests. A node is generated and counted
	// once per binding of the positions it reads, so a node two steps share
	// counts once; a counted last position adds what its list would hold.
	Candidates uint64
	// Embeddings is the number of (partial) embeddings that passed
	// validation, across all depths.
	Embeddings uint64
	// SetOps counts set operations: one per overlap node a condition reads,
	// built once per binding of the positions it reads; one per probe pass
	// into a mark (DESIGN.md "Marks") — a parent ∩ group or a Disc filter in
	// generation, a counted last position's count, each candidate a
	// condition counts against a marked overlap; and one per candidate a
	// condition checks by count or label histogram against a windowed
	// overlap — not the IsSubsetSets and SetsIntersectAdaptive tests of ⊆
	// and ∅ conditions there.
	SetOps uint64
	// GenTime/ValTime split the wall time between candidate generation and
	// validation; only tracked when Options.Instrument is set.
	GenTime time.Duration
	ValTime time.Duration
	// Scheduler counters (always tracked; they cost one non-atomic
	// increment each). Publishes counts sibling candidate ranges made
	// stealable, Steals counts tasks taken from a peer's deque, and
	// IdleSpins counts scans that found no work anywhere — together they
	// describe how much rebalancing a run needed and whether workers
	// starved.
	Publishes uint64
	Steals    uint64
	IdleSpins uint64
	// Checkpoint counters: snapshots successfully persisted, their total
	// size, and sink failures (a failed write leaves the previous snapshot
	// intact and the run keeps going). A resumed run continues the counters
	// of the snapshot it started from.
	Checkpoints      uint64
	CheckpointBytes  uint64
	CheckpointErrors uint64
	// Kernel-path counters: how many set operations (overlap nodes, the
	// conditions' count and ∅ tests against windowed overlaps, and every
	// probe pass into a mark, generation's among them) ran word-parallel over
	// bitmap windows (KernelBitmap), probe-accelerated with one windowed
	// operand or into a mark (KernelMixed), or on the plain array kernels
	// (KernelArray). Always tracked, like the scheduler counters; the kern
	// ablation and ohmstat surface them to show which representations a
	// workload actually hits.
	KernelArray  uint64
	KernelBitmap uint64
	KernelMixed  uint64
}

// Add accumulates o into s. Exported for the consumers that merge partial
// Stats outside the engine — the cluster coordinator folds per-task worker
// reports into a job total with it.
func (s *Stats) Add(o Stats) {
	s.Candidates += o.Candidates
	s.Embeddings += o.Embeddings
	s.SetOps += o.SetOps
	s.GenTime += o.GenTime
	s.ValTime += o.ValTime
	s.Publishes += o.Publishes
	s.Steals += o.Steals
	s.IdleSpins += o.IdleSpins
	s.Checkpoints += o.Checkpoints
	s.CheckpointBytes += o.CheckpointBytes
	s.CheckpointErrors += o.CheckpointErrors
	s.KernelArray += o.KernelArray
	s.KernelBitmap += o.KernelBitmap
	s.KernelMixed += o.KernelMixed
}

// Result reports one mining run.
type Result struct {
	// Ordered counts embeddings as ordered hyperedge tuples following the
	// matching order; every unordered embedding corresponds to exactly
	// Automorphisms ordered tuples. An unrestricted plan enumerates them
	// all; a symmetry-broken plan enumerates one canonical tuple per orbit
	// and reports Ordered = Unique × Automorphisms — identical for complete
	// runs, so the two plan families are count-compatible.
	Ordered uint64
	// Unique counts unordered embeddings. A symmetry-broken plan counts
	// them directly (exact even when truncated); an unrestricted plan
	// derives Unique = Ordered / Automorphisms, exact only for complete
	// runs — a truncated run that stopped mid-orbit leaves the leftover
	// ordered tuples in UniqueRemainder instead of silently rounding.
	Unique uint64
	// UniqueRemainder is Ordered mod Automorphisms on an unrestricted plan:
	// non-zero only when the limit or the context stopped the run in the
	// middle of an automorphism orbit, in which case Unique undercounts
	// by the partial orbit. Always zero on symmetry-broken plans and on
	// complete runs.
	UniqueRemainder uint64
	// Restricted reports whether the plan carried symmetry-breaking
	// restrictions (see oig.Plan.Restricted).
	Restricted bool
	// Automorphisms is the pattern's hyperedge automorphism count.
	Automorphisms int
	// Elapsed is the wall-clock mining time (excluding plan compilation).
	Elapsed time.Duration
	// Truncated reports that exploration stopped before exhausting the
	// search space — a worker observed the stop flag (Limit reached, or the
	// context done: cancelled or past its deadline) while unexplored work
	// remained — so Ordered may undercount. A run that reaches Limit on its
	// very last embedding explored everything and is NOT truncated.
	Truncated bool
	Stats     Stats
	Plan      *oig.Plan
}

// Mine compiles the appropriate plan for the options and runs it.
func Mine(store *dal.Store, p *pattern.Pattern, opts Options) (Result, error) {
	return MineContext(context.Background(), store, p, opts)
}

// MineContext is Mine with caller-controlled cancellation: when ctx is
// cancelled mid-run the workers unwind cooperatively and the call returns
// the partial Result accumulated so far together with ctx.Err().
func MineContext(ctx context.Context, store *dal.Store, p *pattern.Pattern, opts Options) (Result, error) {
	plan, err := CompilePlan(store, p, opts)
	if err != nil {
		return Result{}, err
	}
	return MineWithPlanContext(ctx, store, plan, opts)
}

// MineWithPlanContext runs a precompiled merged plan from the candidates of
// its first position, split into at most Workers depth-0 tasks.
// The context is the one way to stop a run early besides Limit: its done
// channel sets the engine's single shared stop flag, so the mining hot path
// pays exactly one atomic load per candidate whichever of the two stops it.
// A run bounded in time takes a context.WithTimeout. On cancellation or
// expiry the partial Result is returned along with ctx.Err().
func MineWithPlanContext(ctx context.Context, store *dal.Store, plan *oig.Plan, opts Options) (Result, error) {
	if err := validateRun(store, plan, opts); err != nil {
		return Result{}, err
	}
	return mineFrontier(ctx, store, plan, opts, &checkpoint.Snapshot{Frontier: partition(firstCandidates(store, plan, opts), workerCount(opts))})
}

// workerCount resolves Options.Workers: ≤0 means GOMAXPROCS.
func workerCount(opts Options) int {
	return cmp.Or(max(opts.Workers, 0), runtime.GOMAXPROCS(0))
}

// mineFrontier is the mining driver behind every run, fresh
// (MineWithPlanContext, MineSeeded) or resumed (ResumeWithPlanContext): snap
// is a validated snapshot — a fresh run's holds only its partitioned first
// candidates — whose frontier seeds round zero and whose counters become the
// result's base. Without a checkpoint sink it runs exactly one round of
// workers; with one, the run is a sequence of rounds separated by quiesce
// points: the round stops (checkpoint timer or a final stop reason), the
// workers drain their unexplored remainders into frontier tasks, the
// frontier is snapshotted to the sink, and — unless the stop was final — the
// next round reseeds from it.
func mineFrontier(ctx context.Context, store *dal.Store, plan *oig.Plan, opts Options, snap *checkpoint.Snapshot) (Result, error) {
	workers := workerCount(opts)
	e := newShared(store, plan, opts)

	// autFactor maps between the enumerated-tuple space the workers count in
	// and the ordered-embedding space snapshots and results report: a
	// symmetry-broken plan enumerates one canonical tuple per orbit of
	// |Aut| ordered embeddings, an unrestricted plan enumerates each ordered
	// embedding itself.
	aut := plan.Pattern.Automorphisms() // memoized on the pattern by its symmetry search
	autFactor := uint64(1)
	if plan.Restricted {
		autFactor = uint64(aut)
	}

	// The snapshot's counters become the base the exploration accumulates
	// on, and its frontier is the seed work. Snapshot.Ordered is stored in
	// ordered space (see buildSnapshot's call site); divide it back to the
	// enumerated space the workers accumulate in. ValidateSnapshot already
	// proved divisibility for restricted plans.
	baseOrdered := snap.Ordered / autFactor
	baseStats := UnpackStats(snap.Stats)
	tasks, seq := snap.Frontier, snap.Seq

	start := time.Now()
	baseResult := func() Result {
		// Ordered temporarily holds the raw enumerated-tuple count;
		// finalizeCounts converts it to the reported Ordered/Unique pair.
		return Result{
			Automorphisms: aut,
			Elapsed:       time.Since(start),
			Plan:          plan,
			Ordered:       baseOrdered,
			Stats:         baseStats,
		}
	}
	// finalizeCounts maps the enumerated-tuple count accumulated in
	// res.Ordered to the Result contract. A symmetry-broken plan enumerated
	// one canonical tuple per unordered embedding: Unique is that count
	// directly (exact even when truncated) and Ordered is reconstructed as
	// Unique × Automorphisms — for complete runs exactly what an
	// unrestricted enumeration would have counted. An unrestricted plan
	// enumerated ordered tuples: Unique is the floor division and any
	// mid-orbit remainder of a truncated run is surfaced honestly in
	// UniqueRemainder instead of vanishing. A product past uint64 is refused
	// with ErrCountOverflow rather than wrapped; otherwise err is returned.
	finalizeCounts := func(res Result, err error) (Result, error) {
		aut := uint64(res.Automorphisms)
		res.Restricted = plan.Restricted
		if plan.Restricted {
			ordered, overflow := MulAdd(0, res.Ordered, aut)
			res.Unique, res.Ordered, err = res.Ordered, ordered, cmp.Or(overflow, err)
		} else {
			res.Unique = res.Ordered / aut
			res.UniqueRemainder = res.Ordered % aut
		}
		return res, err
	}

	// The context's end sets the same stop flag the limit uses — no extra
	// hot-path check, and nothing at all for a context that never ends.
	// AfterFunc calls its function on a goroutine of its own, so a context
	// already done sets the flag here, and the workers stop before their
	// first candidate: the run is Truncated, and with a checkpoint sink its
	// whole frontier is saved. Between rounds the driver consults ctx.Err()
	// directly, so the one-shot store cannot be lost to a flag reset.
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, func() { e.stopped.Store(true) })()
	}
	if ctx.Err() != nil {
		e.stopped.Store(true)
	}

	if len(tasks) == 0 {
		// No first candidates, or a snapshot of a fully drained run: nothing
		// to mine.
		return finalizeCounts(baseResult(), ctx.Err())
	}

	var found atomic.Uint64
	found.Store(baseOrdered) // Limit accounts embeddings counted before the snapshot
	ws := make([]*worker, workers)
	for i := range ws {
		ws[i] = newWorker(e, &found)
	}

	var (
		ckptWritten, ckptBytes, ckptErrors uint64
		frontier                           []checkpoint.Task
		truncated                          bool
	)
	for round := 0; ; round++ {
		if round > 0 {
			// Reset the stop flag for the next round, then check the context:
			// the ordering (reset first, check after) guarantees that a
			// context that ended in the gap is either still visible in the
			// flag or visible here.
			e.stopped.Store(false)
			if ctx.Err() != nil {
				truncated = true
				break
			}
		}
		var ckptTimer *time.Timer
		if e.saveOnStop && opts.CheckpointEvery > 0 {
			ckptTimer = time.AfterFunc(opts.CheckpointEvery, func() { e.stopped.Store(true) })
		}
		sched := e.runRound(ws, tasks)
		if ckptTimer != nil {
			ckptTimer.Stop()
		}

		e.panicMu.Lock()
		panicked := e.panicErr != nil
		e.panicMu.Unlock()

		if e.saveOnStop && !panicked {
			frontier = collectFrontier(ws, sched)
		} else {
			// Queued tasks no worker ever popped are definitively skipped.
			// (Work abandoned mid-subtree was already flagged by the worker
			// that unwound — or lost outright by a panicking one.)
			frontier = nil
			if sched.pending.Load() > 0 {
				e.abandoned.Store(true)
			}
		}

		limitReached := opts.Limit > 0 && found.Load() >= opts.Limit
		done := len(frontier) == 0
		if e.saveOnStop && !done && !panicked {
			// Snapshot every quiesce, including final stops: a cancelled
			// (SIGTERM'd) or limit-stopped run leaves a resumable snapshot
			// behind. The counters passed are the totals so far, checkpoint
			// accounting included, so a resumed run continues them.
			ordered := baseOrdered
			st := baseStats
			for _, w := range ws {
				ordered += w.count
				st.Add(w.stats)
			}
			st.Checkpoints += ckptWritten
			st.CheckpointBytes += ckptBytes
			st.CheckpointErrors += ckptErrors
			seq++
			// Snapshots carry Ordered in ordered-embedding space (the
			// documented contract), so the enumerated total is scaled by
			// |Aut| for restricted plans — exact, since every counted
			// canonical tuple stands for a whole orbit (and a total past uint64
			// is not written at all).
			if ordered, err := MulAdd(0, ordered, autFactor); err != nil {
				ckptErrors++
			} else if n, err := opts.Checkpoint.WriteSnapshot(e.buildSnapshot(seq, frontier, ordered, st)); err != nil {
				// A failed write leaves the previous snapshot intact (sinks
				// are atomic); losing a checkpoint must not kill the run.
				ckptErrors++
			} else {
				ckptWritten++
				ckptBytes += uint64(n)
			}
		}
		if done || panicked || !e.saveOnStop || limitReached || ctx.Err() != nil {
			truncated = truncated || len(frontier) > 0
			break
		}
		tasks = frontier
	}

	res := baseResult()
	for _, w := range ws {
		res.Ordered += w.count
		res.Stats.Add(w.stats)
	}
	res.Stats.Checkpoints += ckptWritten
	res.Stats.CheckpointBytes += ckptBytes
	res.Stats.CheckpointErrors += ckptErrors
	res.Truncated = e.abandoned.Load() || truncated
	res.Elapsed = time.Since(start)
	e.panicMu.Lock()
	panicErr := e.panicErr
	e.panicMu.Unlock()
	return finalizeCounts(res, cmp.Or(panicErr, ctx.Err()))
}

// ErrCountOverflow refuses a count past 2^64−1 instead of wrapping it: a
// restricted run's ordered total is Unique × |Aut|, and |Aut| reaches 14!.
var ErrCountOverflow = errors.New("engine: ordered embedding count overflows uint64")

// MulAdd returns sum + a×b, or ErrCountOverflow when it exceeds uint64.
func MulAdd(sum, a, b uint64) (uint64, error) {
	hi, lo := bits.Mul64(a, b)
	s, carry := bits.Add64(sum, lo, 0)
	if hi|carry != 0 {
		return 0, ErrCountOverflow
	}
	return s, nil
}

// CheckVariant vets the "variant" key with which query, job and lease bodies
// used to select an engine configuration. Empty and "OHMiner" pass; any
// other name is refused rather than ignored, because counting it as OHMiner
// would time — and fingerprint — a different run than the one asked for.
func CheckVariant(name string) error {
	if name == "" || name == "OHMiner" {
		return nil
	}
	return fmt.Errorf("variant %q is not served: this engine runs the OHMiner configuration only; the paper's baselines run under ohmbench and ohminer -variant", name)
}

// ErrPlanMode is returned for a plan this engine does not execute: anything
// but a merged one.
var ErrPlanMode = errors.New("engine: needs a merged plan")

// validateRun refuses the (store, plan, opts) combinations no run can count
// correctly.
func validateRun(store *dal.Store, plan *oig.Plan, opts Options) error {
	if plan.Mode != oig.ModeMerged {
		return fmt.Errorf("%w, got a %s one (simple-plan validation runs in internal/baseline)", ErrPlanMode, plan.Mode)
	}
	if err := CheckLabels(store, plan); err != nil {
		return err
	}
	if plan.Restricted && opts.PositionFilter != nil {
		// A restriction can reject the one tuple of an orbit the filter
		// would have accepted (anchored counting binds specific edges to
		// specific positions), silently undercounting. The plan-compiling
		// entry points disable restrictions when a filter is set; reject
		// the combination here for callers bringing their own plan.
		return errors.New("engine: PositionFilter requires a plan compiled without symmetry-breaking restrictions (oig.CompileOptions.NoRestrictions)")
	}
	return nil
}

// CheckLabels refuses a plan whose pattern carries vertex or hyperedge labels
// the store's hypergraph lacks: every run, and every cluster job on creation.
func CheckLabels(store *dal.Store, plan *oig.Plan) error {
	if plan.Labeled && !store.Hypergraph().Labeled() {
		return errors.New("engine: labeled pattern on unlabeled hypergraph")
	}
	if plan.Pattern.EdgeLabeled() && !store.Hypergraph().EdgeLabeled() {
		return errors.New("engine: hyperedge-labeled pattern on hypergraph without hyperedge labels")
	}
	return nil
}

// runRound seeds the round's tasks, spawns its workers, waits for them to
// finish or quiesce, and returns the round's scheduler for frontier
// collection and definitive-skip accounting.
func (e *shared) runRound(ws []*worker, tasks []checkpoint.Task) *scheduler {
	sched := newScheduler(len(ws))
	sched.seedTasks(tasks)
	var wg sync.WaitGroup
	for wi, w := range ws {
		w.stop = false
		w.sched, w.id = sched, wi
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer e.recoverWorker()
			w.run()
		}()
	}
	wg.Wait()
	return sched
}

// splitParams clamps the split depth so the last position is never
// splittable — splitting there publishes leaves, pure overhead.
func splitParams(plan *oig.Plan) (depth, threshold int) {
	return max(1, min(publishDepth, plan.Pattern.NumEdges()-1)), publishThreshold
}

// shared is the per-run state every worker uses. Everything except the
// cancellation flags is read-only during mining.
type shared struct {
	store *dal.Store
	plan  *oig.Plan
	opts  Options
	// splitDepth/splitThreshold are the run's scheduling parameters (see
	// splitParams).
	splitDepth     int
	splitThreshold int
	// stopped is the shared cooperative-cancellation flag: set when the
	// context ends, by a panicking worker, by the worker that reaches Limit
	// and by the checkpoint timer, checked once per candidate by every
	// worker (including thieves executing stolen tasks).
	stopped atomic.Bool
	// abandoned records that some worker actually walked away from
	// unexplored work after observing stopped — the condition under which
	// Result.Truncated is reported. A run whose stop flag fires only after
	// (or exactly at) exhaustion stays un-truncated.
	abandoned atomic.Bool
	// saveOnStop switches the workers from abandoning unexplored work on a
	// stop to saving it as frontier tasks (worker.saveTask) — set when a
	// checkpoint sink is configured, so every quiesce point captures the
	// exact remaining search space.
	saveOnStop bool
	// panicErr holds the first worker panic, converted to an error so a
	// crashing user callback cannot take down the process.
	panicMu  sync.Mutex
	panicErr error // guarded by panicMu
	emitMu   sync.Mutex
	// countedLeaf is the last matching-order position if nothing there needs
	// a look at single hyperedges — no label test, and the caller neither
	// receives (OnEmbedding) nor filters (PositionFilter) single bindings —
	// so the worker may count what its conditions keep instead of visiting
	// it; -1 otherwise.
	countedLeaf int
	// vdefs, nodes and last lay out every step's conditions and chain of
	// nodes (cond.go); each worker caches its own copy of the nodes.
	vdefs []vdef
	nodes []enode
	last  []int
}

// newShared resolves a run's options into the state its workers share.
func newShared(store *dal.Store, plan *oig.Plan, opts Options) *shared {
	e := &shared{store: store, plan: plan, opts: opts, saveOnStop: opts.Checkpoint != nil, countedLeaf: -1}
	e.splitDepth, e.splitThreshold = splitParams(plan)
	e.vdefs, e.nodes, e.last = compileChains(plan)
	last := len(plan.Steps) - 1
	if last > 0 && e.last[last] >= 0 && !plan.Labeled && plan.Steps[last].EdgeLabel < 0 &&
		opts.OnEmbedding == nil && opts.PositionFilter == nil {
		e.countedLeaf = last
	}
	return e
}

// ErrWorkerPanic wraps a panic recovered on a mining worker goroutine;
// match with errors.Is to distinguish a crashed query (a server-side bug
// or a faulty user callback) from an invalid one.
var ErrWorkerPanic = errors.New("engine: worker panicked")

// recoverWorker converts a panic on a worker goroutine (most plausibly a
// user OnEmbedding callback, but any engine bug too) into a recorded error
// instead of a process death, and stops the remaining workers. The worker's
// own unexplored subtree is gone, so the run is marked abandoned.
func (e *shared) recoverWorker() {
	r := recover()
	if r == nil {
		return
	}
	e.panicMu.Lock()
	if e.panicErr == nil {
		e.panicErr = fmt.Errorf("%w: %v\n%s", ErrWorkerPanic, r, debug.Stack())
	}
	e.panicMu.Unlock()
	e.abandoned.Store(true)
	e.stopped.Store(true)
}

// firstCandidates enumerates candidates of the first pattern hyperedge:
// every data hyperedge with matching degree (and label histogram for
// labeled patterns).
func firstCandidates(store *dal.Store, plan *oig.Plan, opts Options) []uint32 {
	return admitFirst(store, plan, opts, store.EdgesWithDegree(plan.Steps[0].Degree))
}

// admitFirst keeps the hyperedges of cands — all of the first position's
// degree — that also pass its label and PositionFilter constraints. cands is
// returned as is when nothing applies, and is never written to: it may be
// the DAL's shared degree-index storage, which in-place filtering would
// corrupt for concurrent runs.
func admitFirst(store *dal.Store, plan *oig.Plan, opts Options, cands []uint32) []uint32 {
	h := store.Hypergraph()
	st := &plan.Steps[0]
	if !plan.Labeled && st.EdgeLabel < 0 && opts.PositionFilter == nil {
		return cands
	}
	var scratch []int
	if plan.Labeled {
		scratch = make([]int, h.NumLabels())
	}
	out := make([]uint32, 0, len(cands))
	for _, c := range cands {
		if st.EdgeLabel >= 0 && (!h.EdgeLabeled() || int64(h.EdgeLabel(c)) != st.EdgeLabel) {
			continue
		}
		if plan.Labeled && !sig.HistogramMatches(h.Labels(), h.EdgeVertices(c), st.EdgeLabels, scratch) {
			continue
		}
		if f := opts.PositionFilter; f != nil && !f(0, c, c) {
			continue
		}
		out = append(out, c)
	}
	return out
}
