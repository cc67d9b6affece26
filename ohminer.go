// Package ohminer is the public API of the OHMiner hypergraph pattern
// mining system — a Go implementation of "OHMiner: An Overlap-centric
// System for Efficient Hypergraph Pattern Mining" (EuroSys 2025).
//
// The typical flow:
//
//	h, _ := ohminer.LoadHypergraph("data.hg")      // or GenerateDataset
//	store := ohminer.NewStore(h)                   // degree-aware data store
//	p, _ := ohminer.ParsePattern("0 1 2; 2 3 4")   // or SamplePattern
//	res, _ := ohminer.Mine(store, p)               // overlap-centric mining
//	fmt.Println(res.Unique, "embeddings in", res.Elapsed)
//
// Mine accepts functional options for worker counts, limits, deadlines,
// embedding callbacks and checkpointing; see the With* options. MineBaseline
// runs the systems the paper compares against.
package ohminer

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"time"

	"ohminer/internal/baseline"
	"ohminer/internal/checkpoint"
	"ohminer/internal/dal"
	"ohminer/internal/durable"
	"ohminer/internal/engine"
	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
	"ohminer/internal/motif"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
	"ohminer/internal/stream"
)

// Re-exported core types. The implementations live in internal packages;
// these aliases form the supported public surface.
type (
	// Hypergraph is an immutable data hypergraph with dual CSR incidence.
	Hypergraph = hypergraph.Hypergraph
	// Store is the degree-aware data store (DAL) built over a hypergraph.
	Store = dal.Store
	// Pattern is a pattern hypergraph.
	Pattern = pattern.Pattern
	// Plan is a compiled overlap-centric execution plan.
	Plan = oig.Plan
	// Result reports one mining run.
	Result = engine.Result
	// Stats carries the engine instrumentation counters.
	Stats = engine.Stats
	// GeneratorConfig parameterizes synthetic dataset generation.
	GeneratorConfig = gen.Config
	// DatasetPreset describes one of the paper's Table 3 datasets.
	DatasetPreset = gen.Preset
	// PatternSetting mirrors one Table 4 pattern family row.
	PatternSetting = pattern.Setting
)

// BuildHypergraph constructs a hypergraph from raw hyperedge vertex lists,
// applying the paper's preprocessing (dedup of vertices within edges and of
// whole edges). labels may be nil.
func BuildHypergraph(numVertices int, edges [][]uint32, labels []uint32) (*Hypergraph, error) {
	return hypergraph.Build(numVertices, edges, labels)
}

// BuildEdgeLabeledHypergraph is BuildHypergraph with per-hyperedge labels
// (the Sec. 4.3.1 extension); hyperedges with identical vertex sets but
// different labels are distinct.
func BuildEdgeLabeledHypergraph(numVertices int, edges [][]uint32, labels, edgeLabels []uint32) (*Hypergraph, error) {
	return hypergraph.BuildEdgeLabeled(numVertices, edges, labels, edgeLabels)
}

// NewEdgeLabeledPattern builds a pattern whose hyperedges carry labels that
// candidates must match.
func NewEdgeLabeledPattern(edges [][]uint32, labels, edgeLabels []uint32) (*Pattern, error) {
	return pattern.NewEdgeLabeled(edges, labels, edgeLabels)
}

// LoadHypergraph reads a hypergraph from a text file (one hyperedge per
// line; optional "#labels" block).
func LoadHypergraph(path string) (*Hypergraph, error) { return hypergraph.Load(path) }

// ReadHypergraph parses the text format from a reader.
func ReadHypergraph(r io.Reader) (*Hypergraph, error) { return hypergraph.Parse(r) }

// GenerateDataset produces a deterministic synthetic hypergraph.
func GenerateDataset(cfg GeneratorConfig) (*Hypergraph, error) { return gen.Generate(cfg) }

// DatasetPresets returns the Table 3 dataset catalogue (bench-scale).
func DatasetPresets() []DatasetPreset { return gen.Presets() }

// DatasetPresetByTag returns one preset (CH, CP, SB, HB, WT, TC, CD, AM,
// SYN).
func DatasetPresetByTag(tag string) (DatasetPreset, error) { return gen.PresetByTag(tag) }

// NewStore builds the degree-aware data store for h. Construction is the
// one-time preprocessing of Sec. 4.5; the store is immutable and safe for
// concurrent mining.
func NewStore(h *Hypergraph) *Store { return dal.Build(h) }

// SaveStore persists a built store so later processes can skip
// construction — the paper's amortized offline preprocessing.
func SaveStore(s *Store, path string) error { return s.SaveFile(path) }

// LoadStore reads a store persisted by SaveStore; h must be the identical
// hypergraph (verified via content fingerprint).
func LoadStore(path string, h *Hypergraph) (*Store, error) { return dal.LoadFile(path, h) }

// NewPattern builds a pattern from hyperedge vertex lists (labels may be
// nil).
func NewPattern(edges [][]uint32, labels []uint32) (*Pattern, error) {
	return pattern.New(edges, labels)
}

// ParsePattern reads a pattern literal such as "0 1 2; 2 3; 3 4 5".
func ParsePattern(s string) (*Pattern, error) { return pattern.Parse(s) }

// PatternSettings returns the paper's Table 4 pattern families P2–P6.
func PatternSettings() []PatternSetting { return pattern.Settings() }

// SamplePattern draws a random connected pattern with numEdges hyperedges
// from h, with the total vertex count in [vertMin, vertMax] — the paper's
// workload methodology.
func SamplePattern(h *Hypergraph, numEdges, vertMin, vertMax int, seed int64) (*Pattern, error) {
	return pattern.Sample(h, numEdges, vertMin, vertMax, rand.New(rand.NewSource(seed)))
}

// SampleDensePattern draws a pattern in which every hyperedge pair overlaps
// (Sec. 5.5 sensitivity workload).
func SampleDensePattern(h *Hypergraph, numEdges, vertMin, vertMax int, seed int64) (*Pattern, error) {
	return pattern.SampleDense(h, numEdges, vertMin, vertMax, rand.New(rand.NewSource(seed)))
}

// Parametric pattern families — the recurring query shapes of the HPM
// literature, ready-made.
var (
	// ChainPattern: k size-`size` hyperedges, consecutive ones sharing
	// `overlap` vertices.
	ChainPattern = pattern.Chain
	// StarPattern: k size-`size` hyperedges sharing a common `core`.
	StarPattern = pattern.Star
	// CyclePattern: k hyperedges in a ring, adjacent ones sharing `overlap`
	// vertices.
	CyclePattern = pattern.Cycle
	// NestedPattern: a ⊃-tower of k hyperedges shrinking by `step`.
	NestedPattern = pattern.Nested
	// CliquePattern: k hyperedges all sharing one `core` block (a dense
	// pattern in the Sec. 5.5 sense).
	CliquePattern = pattern.Clique
)

// CompilePattern runs the redundancy-free compiler and returns the
// overlap-centric execution plan (with the merge optimization applied), in
// the matching order chosen without a store: by cost on flat statistics, so
// isomorphic patterns compile to equal steps. Mine orders by cost on its
// store instead; its Result.Plan is the plan that ran.
func CompilePattern(p *Pattern) (*Plan, error) { return oig.Compile(p, oig.ModeMerged) }

// ErrWorkerPanic wraps a panic recovered on a mining worker goroutine
// (e.g. inside a WithEmbeddings callback); match with errors.Is.
var ErrWorkerPanic = engine.ErrWorkerPanic

// Option configures Mine and the other mining entry points.
type Option func(*config)

// config is what the options set: the engine's options, and the deadline
// WithDeadline asks for, which bounded turns into a context.
type config struct {
	engine.Options
	deadline time.Duration
}

// buildOptions applies the options and returns the configuration.
func buildOptions(opts []Option) config {
	var c config
	for _, fn := range opts {
		fn(&c)
	}
	return c
}

// bounded runs one engine call under a context.WithTimeout of d, or under
// ctx alone when d ≤ 0. A run that timeout cut short is an answer, not an
// error: its context.DeadlineExceeded becomes nil — but only while the
// caller's ctx is still live, so the caller's own cancellation or deadline
// still reports. Callers make the call right before the engine runs, so a
// query the Session's result cache answers allocates no timer.
func bounded[T any](ctx context.Context, d time.Duration, run func(context.Context) (T, error)) (T, error) {
	if d <= 0 {
		return run(ctx)
	}
	dctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	res, err := run(dctx)
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		err = nil
	}
	return res, err
}

// WithWorkers sets the number of mining goroutines (default GOMAXPROCS).
func WithWorkers(n int) Option { return func(c *config) { c.Workers = n } }

// WithLimit stops mining once at least n ordered embeddings were found.
func WithLimit(n uint64) Option { return func(c *config) { c.Limit = n } }

// WithDeadline aborts mining after roughly d (0 = none): the engine runs
// under a context.WithTimeout of d, made just before it starts. A run the
// deadline actually cut short returns a partial Result marked Truncated and
// a nil error: the partial counts are the answer — the serving layer maps
// per-request timeouts here. The caller's own context is different: if it
// is cancelled or expires, the call returns its error as MineContext
// documents. A Session query its result cache answers returns the cached
// complete Result, deadline or not.
func WithDeadline(d time.Duration) Option { return func(c *config) { c.deadline = d } }

// WithInstrumentation enables the Stats counters and phase timers.
func WithInstrumentation() Option { return func(c *config) { c.Instrument = true } }

// WithEmbeddings registers a callback receiving every embedding (hyperedge
// IDs in matching order). Under the default symmetry breaking it fires once
// per unordered embedding, with the lexicographically smallest of its
// automorphic orderings; under WithoutSymmetryBreaking, once per ordered
// tuple. The engine serializes calls; copy the slice to retain it.
func WithEmbeddings(fn func(edges []uint32)) Option {
	return func(c *config) { c.OnEmbedding = fn }
}

// WithoutSymmetryBreaking compiles the plan without the symmetry-breaking
// ordering restrictions, restoring the legacy enumeration that visits every
// ordered tuple of an embedding (|Aut| of them per unordered match) and
// derives Unique by division. The default — restrictions on — enumerates
// one canonical tuple per embedding, shrinking the search by the
// automorphism count and making Unique exact even for truncated runs.
// Counts agree between the two modes on complete runs; use this for
// ablations, for WithEmbeddings callbacks that must observe every ordered
// tuple, or to resume checkpoints written by builds without the
// restriction pass.
func WithoutSymmetryBreaking() Option {
	return func(c *config) { c.NoSymmetryBreak = true }
}

// Mine finds all embeddings of p in the store's hypergraph using the
// overlap-centric engine.
func Mine(store *Store, p *Pattern, opts ...Option) (Result, error) {
	return MineContext(context.Background(), store, p, opts...)
}

// MineContext is Mine with caller-controlled cancellation: when ctx is
// cancelled mid-run the engine's workers unwind cooperatively (one shared
// stop flag, one atomic load per candidate) and the call returns the
// partial Result accumulated so far together with ctx.Err(). A panic in a
// worker — e.g. inside a WithEmbeddings callback — is recovered and
// returned as an error instead of crashing the process.
func MineContext(ctx context.Context, store *Store, p *Pattern, opts ...Option) (Result, error) {
	c := buildOptions(opts)
	return bounded(ctx, c.deadline, func(ctx context.Context) (Result, error) {
		return engine.MineContext(ctx, store, p, c.Options)
	})
}

// MineBaseline mines p with one of the systems the paper compares OHMiner
// against or ablates it into — variant is "HGMatch", "OHM-G", "OHM-V",
// "OHM-I", or "OHMiner" itself — as run by internal/baseline: a plain
// depth-first interpreter with the paper's first-level scheduling over
// workers goroutines (≤0: GOMAXPROCS) and none of Mine's options. Counts
// always equal Mine's; the time is what the comparison is about.
func MineBaseline(store *Store, p *Pattern, variant string, workers int) (Result, error) {
	v, err := baseline.VariantByName(variant)
	if err != nil {
		return Result{}, err
	}
	res, err := baseline.Mine(context.Background(), store, p, baseline.Options{Gen: v.Gen, Val: v.Val, Workers: workers})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Ordered: res.Ordered, Unique: res.Unique, Restricted: res.Restricted,
		Automorphisms: res.Automorphisms, Elapsed: res.Elapsed, Plan: res.Plan,
	}, nil
}

// Crash-safe checkpoint/resume for long mining runs. A run configured with
// WithCheckpoint periodically quiesces its workers, captures the exact
// unexplored search frontier plus the partial counters, and hands the
// versioned, CRC-protected snapshot to the sink; cancellation (e.g.
// SIGTERM) also snapshots before returning. ResumeFromCheckpoint continues
// such a run with exactly-once counting: the resumed total equals the
// uninterrupted one. See docs/ROBUSTNESS.md.
type (
	// CheckpointSnapshot is the serializable state of an interrupted run.
	CheckpointSnapshot = checkpoint.Snapshot
	// CheckpointSink consumes snapshots as the engine produces them.
	CheckpointSink = checkpoint.Sink
)

// ErrCorruptCheckpoint tags snapshot files rejected as damaged (torn
// write, bit rot); match with errors.Is.
var ErrCorruptCheckpoint = checkpoint.ErrCorrupt

// NewCheckpointFileSink returns a sink persisting every snapshot to path,
// atomically replacing the previous one (temp file, fsync, rename, directory
// fsync), so a crash mid-checkpoint always leaves a loadable snapshot behind.
func NewCheckpointFileSink(path string) CheckpointSink {
	return &durable.FileSink[*checkpoint.Snapshot]{Path: path}
}

// ReadCheckpoint loads a snapshot written by a checkpoint sink, verifying
// its checksum and structure.
func ReadCheckpoint(path string) (*CheckpointSnapshot, error) {
	return checkpoint.ReadFile(path)
}

// WithCheckpoint makes the run crash-safe: every `every` interval (and on
// cancellation or limit stops) the engine quiesces and writes a snapshot to
// the sink. Sink failures never abort mining — they are only counted in
// Stats.CheckpointErrors, and the previous snapshot stays intact. every ≤ 0
// snapshots only at final stops (a SIGTERM'd run still leaves a resumable
// snapshot).
func WithCheckpoint(sink CheckpointSink, every time.Duration) Option {
	return func(c *config) {
		c.Checkpoint = sink
		c.CheckpointEvery = every
	}
}

// ResumeFromCheckpoint continues the interrupted mining run captured in
// snap against the same store and pattern (verified via fingerprints; a
// snapshot from a different plan, matching order, or dataset is refused).
// The returned Result includes everything counted before the interruption:
// a resumed run that completes reports exactly the totals an uninterrupted
// run would have. Options must select the same matching order the original
// run used; they may add a fresh WithCheckpoint sink to keep the resumed
// run crash-safe too.
func ResumeFromCheckpoint(ctx context.Context, store *Store, p *Pattern, snap *CheckpointSnapshot, opts ...Option) (Result, error) {
	c := buildOptions(opts)
	return bounded(ctx, c.deadline, func(ctx context.Context) (Result, error) {
		plan, err := engine.CompilePlan(store, p, c.Options)
		if err != nil {
			return engine.Result{}, err
		}
		return engine.ResumeWithPlanContext(ctx, store, plan, snap, c.Options)
	})
}

// MotifEntry is one row of a motif census.
type MotifEntry = motif.Entry

// MotifCensus enumerates every isomorphism class of k-hyperedge patterns
// (regions bounded by maxRegionSize, total vertices by maxVertices) and
// counts each one's occurrences — the motif-counting application layer.
// WithDeadline bounds the whole census: the shapes it cut short or never
// reached are Truncated.
func MotifCensus(store *Store, k, maxRegionSize, maxVertices int, opts ...Option) ([]MotifEntry, error) {
	c := buildOptions(opts)
	return bounded(context.Background(), c.deadline, func(ctx context.Context) ([]MotifEntry, error) {
		return motif.Census(ctx, store, motif.Options{
			K: k, MaxRegionSize: maxRegionSize, MaxVertices: maxVertices, Engine: c.Options,
		})
	})
}

// FrequentMotifs filters a census to motifs with at least minUnique
// unordered occurrences.
func FrequentMotifs(entries []MotifEntry, minUnique uint64) []MotifEntry {
	return motif.Frequent(entries, minUnique)
}

// MotifSimilarity compares two censuses (same configuration) by cosine
// similarity of their frequency vectors.
func MotifSimilarity(a, b []MotifEntry) (float64, error) { return motif.Profile(a, b) }

// StreamMiner is the streaming subsystem: a batch log with windowed
// deletion, incremental derived-state maintenance, standing queries with
// per-batch delta events, and checkpoint/resume. See internal/stream and
// docs/STREAMING.md.
type StreamMiner = stream.Miner

// StreamConfig configures a StreamMiner.
type StreamConfig = stream.Config

// StreamBatch is one applied batch: hyperedge additions and retirements.
type StreamBatch = stream.Batch

// StreamBatchResult is what applying one batch produced.
type StreamBatchResult = stream.BatchResult

// StreamDelta is one standing query's per-batch delta event.
type StreamDelta = stream.Delta

// StreamQueryInfo describes one registered standing query.
type StreamQueryInfo = stream.QueryInfo

// StreamSnapshot is a decoded durable stream snapshot.
type StreamSnapshot = stream.Snapshot

// StreamFileSink makes a stream durable (StreamConfig.Snapshot): the base
// snapshot at Path, replaced atomically, and one fsynced append per applied
// batch to Path+".log". A miner with one holds the log open until Close.
type StreamFileSink = stream.FileSink

// NewStreamMiner opens a streaming miner over an empty hypergraph.
func NewStreamMiner(cfg StreamConfig) (*StreamMiner, error) { return stream.NewMiner(cfg) }

// LoadStreamMiner resumes a streaming miner from the files a StreamFileSink
// wrote at path (the base with its log replayed); cumulative query counts
// continue exactly where the last acknowledged batch left them. Without
// cfg.Snapshot the files are only read. With it the miner appends its
// batches to the log it replayed and rewrites the base by the sink's usual
// rules, not on load; cfg.Snapshot.Path must be path, and a sink naming
// other files is refused.
func LoadStreamMiner(path string, cfg StreamConfig) (*StreamMiner, error) {
	return stream.LoadFile(path, cfg)
}

// CountEstimate is an approximate embedding count with its standard error.
type CountEstimate = engine.Estimate

// EstimateCount approximates the embedding count by exhaustively mining the
// subtrees of a uniform `fraction` sample of first-hyperedge candidates and
// scaling up — the sampling-based approximation direction (ASAP/Arya) from
// the paper's related work, implemented on the overlap-centric engine.
// fraction 1 yields the exact count. Deterministic in seed.
//
// WithDeadline bounds it as it bounds Mine: an estimate the deadline cut
// short scales over the sampled roots finished before it (SampledRoots) and
// returns a nil error.
func EstimateCount(store *Store, p *Pattern, fraction float64, seed int64, opts ...Option) (CountEstimate, error) {
	c := buildOptions(opts)
	return bounded(context.Background(), c.deadline, func(ctx context.Context) (CountEstimate, error) {
		return engine.EstimateCount(ctx, store, p, fraction, seed, c.Options)
	})
}
