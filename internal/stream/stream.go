// Package stream is the streaming hypergraph pattern-mining subsystem
// (ROADMAP item 4): a batch log with monotonically increasing edge epochs,
// windowed deletion/expiry, standing pattern queries evaluated as exact
// per-batch deltas, and a CRC-framed base snapshot plus a per-batch append
// log for exactly-once resume.
//
// The model. A Miner owns an evolving hypergraph over a fixed vertex
// universe. Time advances in batches: applying batch t (epoch t, starting
// at 1) adds hyperedges, retires hyperedges (explicitly, or by window
// expiry), and re-adds previously retired ones. Hyperedges are identified
// by their normalized vertex set; a physical edge ID is assigned the first
// time a set appears and is reused on resurrection, so the underlying
// hypergraph and DAL grow append-only between compactions, and retirement
// is a mask (PositionFilter) rather than a data-structure mutation.
//
// Delta semantics (Tesseract/PSMiner-style anchored enumeration). After
// batch t, for each standing query the miner counts
//
//	added(t)   = embeddings of graph(t) using ≥1 edge added at t
//	retired(t) = embeddings of graph(t−1) using ≥1 edge retired at t
//
// each by anchoring on the first pattern hyperedge (in the order the pattern
// was written) that binds a changed edge, so every embedding is counted
// exactly once and
//
//	total(t) = total(t−1) + added(t) − retired(t)
//
// holds exactly (differential-tested against a from-scratch TotalCount in
// stream_test.go). The run for anchor a uses a plan whose matching order
// starts at a and is seeded with the batch's changed edges, so its cost
// follows their neighbourhoods, not the live graph (docs/STREAMING.md,
// "Delta evaluation"). Both classes need every ordered tuple visible, so
// query plans are compiled without symmetry-breaking restrictions; unique
// counts divide by the automorphism count, exact because the runs are
// complete.
//
// Batches are fully validated before any state is touched: a rejected
// batch leaves the miner exactly as it was (the internal/dynamic
// state-poisoning bug class this package retires).
package stream

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ohminer/internal/dal"
	"ohminer/internal/durable"
	"ohminer/internal/engine"
	"ohminer/internal/hypergraph"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// Config configures a Miner. Semantic fields (NumVertices, Window) are part
// of the stream's identity and are persisted in snapshots; the rest are
// runtime knobs re-supplied on load.
type Config struct {
	// NumVertices fixes the vertex universe [0, NumVertices).
	NumVertices int

	// Window, when > 0, keeps each hyperedge live for at most Window
	// batches: applying epoch t auto-retires every live edge whose last add
	// (or refresh) epoch is ≤ t − Window. Re-adding a live edge refreshes
	// its clock without generating deltas. 0 means edges live until
	// explicitly retired.
	Window uint64

	// CompactFraction triggers a compaction — a rebuild of the physical
	// hypergraph from live edges only, dropping retired garbage — when
	// retired edges exceed this fraction of physical edges (and CompactMin).
	// 0 selects the default 0.25; negative disables compaction.
	CompactFraction float64

	// CompactMin is the minimum number of retired edges before a compaction
	// is considered (0 = default 64).
	CompactMin int

	// Engine templates the options for all query evaluation (Workers,
	// Instrument). Run-shaping fields — Limit, OnEmbedding, UniqueOnly,
	// PositionFilter, Checkpoint — are ignored: delta counting needs
	// complete runs, and the miner owns the position filters.
	Engine engine.Options

	// Snapshot, when set, makes the stream durable: every applied batch
	// appends one record to its log, fsynced before ApplyBatch returns, and
	// the base snapshot is rewritten when the miner opens, on every
	// (non-deduplicated) query registration and when the log outgrows it
	// (log.go).
	Snapshot *FileSink
}

// Batch is one unit of stream input.
type Batch struct {
	// Seq, when non-zero, is the 1-based position of this batch in the
	// feed. A batch whose Seq is ≤ the miner's current epoch has already
	// been applied and returns ErrStale without touching state — the
	// idempotent-replay half of exactly-once resume; a Seq beyond epoch+1
	// returns ErrGap. Zero means unsequenced (always applies).
	Seq uint64
	// Add lists hyperedges to add as raw vertex lists (normalized
	// internally). Adding a live edge refreshes its window clock; adding a
	// retired edge resurrects it.
	Add [][]uint32
	// Retire lists hyperedges to retire, named by vertex set. Each must be
	// live when the batch is applied; retiring an unknown or already
	// retired edge rejects the whole batch. A set appearing in both Add and
	// Retire is retired and immediately re-added (a fresh edge for delta
	// accounting).
	Retire [][]uint32
}

// BatchResult reports one applied batch.
type BatchResult struct {
	// Epoch is the epoch this batch was assigned.
	Epoch uint64
	// Added counts hyperedges that became live (fresh, resurrected, or
	// retire+re-add); Retired counts explicit retirements (including
	// retire+re-add); Expired counts window expirations; Refreshed counts
	// adds that only reset a live edge's window clock.
	Added, Retired, Expired, Refreshed int
	// Deltas holds one entry per standing query, in query-ID order.
	Deltas []Delta
	// Compacted reports that this apply began by compacting retired
	// garbage out of the physical hypergraph.
	Compacted bool
	// Elapsed is the wall-clock time of the whole apply (derived-state
	// maintenance + query evaluation, excluding snapshot I/O).
	Elapsed time.Duration
	// Stats sums the engine counters of the batch's anchored delta runs
	// (Candidates and the phase timers only with Config.Engine.Instrument):
	// the work the batch cost, as counts.
	Stats engine.Stats
}

// Delta is one standing query's exact per-batch result, the event pushed to
// subscribers.
type Delta struct {
	QueryID uint64 `json:"query_id"`
	Epoch   uint64 `json:"epoch"`
	// Seq numbers this query's events from 1, resuming across snapshots.
	Seq uint64 `json:"seq"`
	// Added/Retired count ordered embedding tuples entering/leaving the
	// match set this batch; the Unique variants divide by the pattern's
	// automorphism count (exact: anchored runs are complete, and "touches a
	// changed edge" is an orbit-invariant property).
	Added         uint64 `json:"added"`
	Retired       uint64 `json:"retired"`
	AddedUnique   uint64 `json:"added_unique"`
	RetiredUnique uint64 `json:"retired_unique"`
	// Total/Unique are the cumulative counts over the current live graph
	// after this batch.
	Total  uint64 `json:"total"`
	Unique uint64 `json:"unique"`
	// ElapsedMS is the evaluation time for this query this batch.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// QueryInfo describes a standing query.
type QueryInfo struct {
	ID            uint64 `json:"id"`
	Pattern       string `json:"pattern"`
	Automorphisms int    `json:"automorphisms"`
	// BaseEpoch is the epoch the query was registered at; its baseline
	// count was mined from that epoch's live graph.
	BaseEpoch uint64 `json:"base_epoch"`
	// Total/Unique are cumulative counts as of the last applied batch.
	Total  uint64 `json:"total"`
	Unique uint64 `json:"unique"`
	// EventSeq is the number of Delta events emitted so far.
	EventSeq uint64 `json:"event_seq"`
	// Existing is true on RegisterQuery when the pattern was already
	// registered (isomorphic to an existing query's pattern) and the
	// existing query was returned instead of a new one.
	Existing bool `json:"existing,omitempty"`
}

// Sentinel errors for sequenced application; see Batch.Seq.
var (
	ErrStale = errors.New("stream: batch seq already applied")
	ErrGap   = errors.New("stream: batch seq skips ahead of the log")
)

type query struct {
	id    uint64
	p     *pattern.Pattern
	lit   string
	canon string
	aut   uint64
	// anchorPlans[a] is the unrestricted plan of the delta runs anchored at
	// pattern hyperedge a: position 0 is a, the rest is ordered by cost on
	// the store. Compiled lazily, on the first batch that needs them.
	anchorPlans []*oig.Plan
	baseEpoch   uint64
	base        uint64 // ordered count at registration
	cumAdd      uint64
	cumRet      uint64
	seq         uint64
}

func (q *query) total() uint64  { return q.base + q.cumAdd - q.cumRet }
func (q *query) unique() uint64 { return q.total() / q.aut }

func (q *query) info() QueryInfo {
	return QueryInfo{
		ID:            q.id,
		Pattern:       q.lit,
		Automorphisms: int(q.aut),
		BaseEpoch:     q.baseEpoch,
		Total:         q.total(),
		Unique:        q.unique(),
		EventSeq:      q.seq,
	}
}

// Miner is the streaming miner. All methods are safe for concurrent use;
// batch application is serialized.
type Miner struct {
	mu  sync.Mutex
	cfg Config
	err error // latched fatal error; set if an apply failed mid-mutation

	epoch uint64

	// Physical state. h/store are nil until the first edge exists; both are
	// replaced wholesale on growth (old values stay valid for concurrent
	// readers). addEpoch/retireEpoch are indexed by physical edge ID;
	// retireEpoch 0 means live.
	h           *hypergraph.Hypergraph
	store       *dal.Store
	addEpoch    []uint64
	retireEpoch []uint64
	live        int
	index       map[string]uint32 // normalized vertex set → physical ID

	// Latest-batch changes, valid between applies: the ID lists seed the
	// anchored delta runs, the marks (indexed by physical edge ID) drive
	// their filters.
	addedIDs    []uint32
	retiredIDs  []uint32
	lastAdded   []bool
	lastRetired []bool
	haveLast    bool

	queries map[uint64]*query
	byCanon map[string]uint64
	nextQID uint64

	// The durable files (log.go), with Config.Snapshot: the open log, the
	// size of the base it extends, and dirty, set when applied state did not
	// reach them; stale replays re-attempt the write before confirming,
	// closing the ack-crash gap.
	log      *durable.Log
	baseSize int64
	dirty    bool
}

// NewMiner creates an empty stream at epoch 0. With Config.Snapshot it
// writes the empty base and log, replacing any stream persisted there.
func NewMiner(cfg Config) (*Miner, error) {
	m, err := newMiner(cfg)
	if err == nil && cfg.Snapshot != nil {
		err = m.rebase()
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// newMiner creates an empty stream without touching the durable files.
func newMiner(cfg Config) (*Miner, error) {
	if cfg.NumVertices <= 0 {
		return nil, errors.New("stream: NumVertices must be positive")
	}
	if cfg.CompactFraction == 0 {
		cfg.CompactFraction = 0.25
	}
	if cfg.CompactMin == 0 {
		cfg.CompactMin = 64
	}
	return &Miner{
		cfg:     cfg,
		index:   map[string]uint32{},
		queries: map[uint64]*query{},
		byCanon: map[string]uint64{},
		nextQID: 1,
	}, nil
}

// edgeKey packs a normalized vertex set into a map key.
func edgeKey(e []uint32) string {
	b := make([]byte, 4*len(e))
	for i, v := range e {
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	return string(b)
}

// normalize copies, sorts, and dedups one raw vertex list.
func normalize(raw []uint32, nv int) ([]uint32, error) {
	if len(raw) == 0 {
		return nil, errors.New("stream: empty hyperedge")
	}
	e := append([]uint32(nil), raw...)
	sort.Slice(e, func(a, b int) bool { return e[a] < e[b] })
	w := 1
	for k := 1; k < len(e); k++ {
		if e[k] != e[w-1] {
			e[w] = e[k]
			w++
		}
	}
	e = e[:w]
	if int(e[len(e)-1]) >= nv {
		return nil, fmt.Errorf("stream: vertex %d out of range [0,%d)", e[len(e)-1], nv)
	}
	return e, nil
}

// mineOpts derives engine options from the config template, clearing the
// run-shaping fields the miner must own.
func (m *Miner) mineOpts(filter func(int, uint32) bool) engine.Options {
	o := m.cfg.Engine
	o.Limit = 0
	o.OnEmbedding = nil
	o.UniqueOnly = false
	o.Checkpoint = nil
	o.CheckpointEvery = 0
	o.PositionFilter = filter
	if filter != nil {
		o.NoSymmetryBreak = true
	}
	return o
}

// planOpts are the options every query plan is compiled with: unrestricted,
// because anchored counting must see every ordered tuple.
func (m *Miner) planOpts() engine.Options {
	o := m.mineOpts(nil)
	o.NoSymmetryBreak = true
	return o
}

// ensureAnchorPlans lazily compiles q's anchor-first plans, each in the order
// oig.ChooseOrder picks on the current store with position 0 fixed at the
// anchor (plans carry only pattern semantics, so a plan compiled once stays
// correct as the store evolves).
func (m *Miner) ensureAnchorPlans(q *query) error {
	if q.anchorPlans != nil {
		return nil
	}
	o, plans := m.planOpts(), make([]*oig.Plan, q.p.NumEdges())
	for a := range plans {
		var err error
		if plans[a], err = engine.CompilePlanOrdered(q.p, oig.ChooseOrder(m.store, q.p, a), o); err != nil {
			return err
		}
	}
	q.anchorPlans = plans
	return nil
}

// applyPlan is the fully validated mutation plan for one batch, computed
// against pre-batch state before anything is touched.
type applyPlan struct {
	adds, retires [][]uint32 // the batch's distinct normalized sets: its log record
	newEdges      [][]uint32 // fresh physical edges, in batch order
	newKeys       []string
	resurrect     []uint32 // retired physical edges coming back live
	refresh       []uint32 // live edges whose window clock resets
	retire        []uint32 // live edges to retire (explicit)
	expire        []uint32 // live edges to retire (window)
	readd         []uint32 // live edges retired AND re-added in this batch
}

// planBatch validates b against current state; any error means no mutation
// will happen.
func (m *Miner) planBatch(b Batch) (*applyPlan, error) {
	if b.Seq != 0 {
		if b.Seq <= m.epoch {
			return nil, fmt.Errorf("%w: seq %d ≤ epoch %d", ErrStale, b.Seq, m.epoch)
		}
		if b.Seq > m.epoch+1 {
			return nil, fmt.Errorf("%w: seq %d, epoch %d", ErrGap, b.Seq, m.epoch)
		}
	}
	t := m.epoch + 1
	ap := &applyPlan{}

	// Retires first: each must name a currently live edge.
	retiring := map[uint32]bool{}
	for _, raw := range b.Retire {
		e, err := normalize(raw, m.cfg.NumVertices)
		if err != nil {
			return nil, err
		}
		id, ok := m.index[edgeKey(e)]
		if !ok || m.retireEpoch[id] != 0 {
			return nil, fmt.Errorf("stream: retire of hyperedge %v which is not live", e)
		}
		if retiring[id] {
			continue
		}
		retiring[id] = true
		ap.retire = append(ap.retire, id)
		ap.retires = append(ap.retires, e)
	}

	// Adds: classify each set against pre-batch state and the retire set.
	adding := map[string]bool{}
	for _, raw := range b.Add {
		e, err := normalize(raw, m.cfg.NumVertices)
		if err != nil {
			return nil, err
		}
		key := edgeKey(e)
		if adding[key] {
			continue // duplicate within the batch: absorbed
		}
		adding[key] = true
		ap.adds = append(ap.adds, e)
		id, known := m.index[key]
		switch {
		case !known:
			ap.newEdges = append(ap.newEdges, e)
			ap.newKeys = append(ap.newKeys, key)
		case retiring[id]:
			ap.readd = append(ap.readd, id)
		case m.retireEpoch[id] != 0:
			ap.resurrect = append(ap.resurrect, id)
		default:
			ap.refresh = append(ap.refresh, id)
		}
	}

	// Window expiry over pre-batch live edges, skipping edges this batch
	// refreshes, retires, or re-adds (their clocks are handled above).
	if w := m.cfg.Window; w > 0 && t > w {
		cutoff := t - w
		refreshing := map[uint32]bool{}
		for _, id := range ap.refresh {
			refreshing[id] = true
		}
		for id, re := range m.retireEpoch {
			if re == 0 && m.addEpoch[id] <= cutoff && !retiring[uint32(id)] && !refreshing[uint32(id)] {
				ap.expire = append(ap.expire, uint32(id))
			}
		}
	}
	return ap, nil
}

// ApplyBatch validates and applies one batch, advancing the epoch,
// maintaining derived state incrementally, evaluating every standing query,
// and (when configured) appending its log record. On a validation error — bad
// vertex, retire of a non-live edge, stale or gapping Seq — no state
// changes. ErrStale is returned for already-applied sequenced batches so
// feeders can replay idempotently after a crash.
func (m *Miner) ApplyBatch(b Batch) (*BatchResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}

	// Compact retired garbage before this batch when it crossed the
	// threshold; done up front so the previous batch's change marks (still
	// serving LatestDelta) were valid until now.
	compacted := false
	if m.shouldCompact() {
		if err := m.compact(); err != nil {
			return nil, err
		}
		compacted = true
	}

	ap, err := m.planBatch(b)
	if err != nil {
		// A stale sequenced batch is the feeder replaying after a crash; if
		// the applied state it is confirming never reached the files, write
		// it now so the idempotent ack implies durability.
		if errors.Is(err, ErrStale) && m.dirty {
			if serr := m.rebase(); serr != nil {
				return nil, serr
			}
		}
		return nil, err
	}
	start := time.Now()
	t := m.epoch + 1

	// Mutate. Everything below must succeed or latch m.err: the log record
	// simply isn't written on failure, so a restart recovers consistency.
	res := &BatchResult{
		Epoch:     t,
		Added:     len(ap.newEdges) + len(ap.resurrect) + len(ap.readd),
		Retired:   len(ap.retire),
		Expired:   len(ap.expire),
		Refreshed: len(ap.refresh),
		Compacted: compacted,
	}
	if len(ap.newEdges) > 0 {
		if err := m.grow(ap.newEdges, ap.newKeys, t); err != nil {
			m.err = fmt.Errorf("stream: apply failed mid-mutation, miner poisoned (restart from snapshot): %w", err)
			return nil, m.err
		}
	}
	m.lastAdded = make([]bool, len(m.addEpoch))
	m.lastRetired = make([]bool, len(m.addEpoch))
	m.addedIDs, m.retiredIDs = m.addedIDs[:0], m.retiredIDs[:0]
	m.haveLast = true
	markRetired := func(ids []uint32) {
		for _, id := range ids {
			m.retireEpoch[id] = t
			m.lastRetired[id] = true
			m.live--
		}
		m.retiredIDs = append(m.retiredIDs, ids...)
	}
	markAdded := func(ids []uint32) {
		for _, id := range ids {
			m.retireEpoch[id] = 0
			m.addEpoch[id] = t
			m.lastAdded[id] = true
			m.live++
		}
		m.addedIDs = append(m.addedIDs, ids...)
	}
	for id := len(m.addEpoch) - len(ap.newEdges); id < len(m.addEpoch); id++ {
		m.lastAdded[id] = true
		m.addedIDs = append(m.addedIDs, uint32(id))
	}
	markRetired(ap.retire)
	markRetired(ap.expire)
	markAdded(ap.resurrect)
	// Retired (marked just above — readd IDs are a subset of ap.retire) and
	// re-added in one batch: counted on both sides of the delta.
	markAdded(ap.readd)
	for _, id := range ap.refresh {
		// Re-adding a live edge resets its window clock only — no delta.
		m.addEpoch[id] = t
	}
	m.epoch = t

	// Evaluate standing queries against the fresh marks.
	res.Deltas, err = m.evaluate(&res.Stats)
	if err != nil {
		m.err = fmt.Errorf("stream: query evaluation failed mid-apply, miner poisoned (restart from snapshot): %w", err)
		return nil, m.err
	}
	res.Elapsed = time.Since(start)

	if m.cfg.Snapshot != nil {
		if err := m.persist(ap, res.Deltas); err != nil {
			// State is applied but not durable; surface the error with the
			// result so the caller can refuse the ack.
			return res, err
		}
	}
	return res, nil
}

// grow extends the physical hypergraph and DAL by fresh edges.
func (m *Miner) grow(newEdges [][]uint32, newKeys []string, t uint64) error {
	if m.h == nil {
		// First growth of an empty stream: Extend cannot invent the vertex
		// universe, so bootstrap with a full build.
		h, err := hypergraph.Build(m.cfg.NumVertices, newEdges, nil)
		if err != nil {
			return err
		}
		if h.NumEdges() != len(newEdges) {
			return errors.New("stream: bootstrap build deduplicated edges")
		}
		m.h = h
		m.store = dal.Build(h)
	} else {
		h, err := hypergraph.Extend(m.h, newEdges)
		if err != nil {
			return err
		}
		m.store = dal.BuildDelta(m.store, h)
		m.h = h
	}
	base := uint32(len(m.addEpoch))
	for i, key := range newKeys {
		m.index[key] = base + uint32(i)
	}
	m.addEpoch = append(m.addEpoch, make([]uint64, len(newEdges))...)
	m.retireEpoch = append(m.retireEpoch, make([]uint64, len(newEdges))...)
	for i := range newEdges {
		m.addEpoch[int(base)+i] = t
	}
	m.live += len(newEdges)
	return nil
}

// evaluate runs the anchored delta counts for every standing query, in ID
// order, and commits the cumulative counters.
func (m *Miner) evaluate(stats *engine.Stats) ([]Delta, error) {
	if len(m.queries) == 0 {
		return nil, nil
	}
	ids := make([]uint64, 0, len(m.queries))
	for id := range m.queries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	deltas := make([]Delta, 0, len(ids))
	for _, id := range ids {
		q := m.queries[id]
		qstart := time.Now()
		added, retired, err := m.latestDelta(q, stats)
		if err != nil {
			return nil, err
		}
		q.cumAdd += added
		q.cumRet += retired
		q.seq++
		deltas = append(deltas, Delta{
			QueryID:       q.id,
			Epoch:         m.epoch,
			Seq:           q.seq,
			Added:         added,
			Retired:       retired,
			AddedUnique:   added / q.aut,
			RetiredUnique: retired / q.aut,
			Total:         q.total(),
			Unique:        q.unique(),
			ElapsedMS:     float64(time.Since(qstart)) / float64(time.Millisecond),
		})
	}
	return deltas, nil
}

// latestDelta counts q's added(t) and retired(t) for the latest batch.
// The runs' engine counters are added to stats.
func (m *Miner) latestDelta(q *query, stats *engine.Stats) (added, retired uint64, err error) {
	if added, err = m.anchored(q, m.addedIDs, m.addFilter, stats); err != nil {
		return 0, 0, err
	}
	retired, err = m.anchored(q, m.retiredIDs, m.retireFilter, stats)
	return added, retired, err
}

// The anchored filter families. The anchor of an embedding is the first
// pattern hyperedge — by original index, order[pos], one fixed total order
// whatever each plan's matching order is — bound to a changed edge, so the
// runs over all anchors partition the embeddings that touch a change.

// addFilter is the anchored filter family for added(t): hyperedges before
// the anchor bind unchanged live edges, the anchor binds an edge added this
// batch, later ones bind any live edge.
func (m *Miner) addFilter(order []int, anchor int) func(int, uint32) bool {
	live, added := m.retireEpoch, m.lastAdded
	return func(pos int, e uint32) bool {
		switch orig := order[pos]; {
		case orig < anchor:
			return live[e] == 0 && !added[e]
		case orig == anchor:
			return added[e]
		default:
			return live[e] == 0
		}
	}
}

// retireFilter is the anchored filter family for retired(t): it enumerates
// embeddings of graph(t−1) — survivors plus this batch's retirees — whose
// anchor binds an edge retired this batch.
func (m *Miner) retireFilter(order []int, anchor int) func(int, uint32) bool {
	live, added, retired := m.retireEpoch, m.lastAdded, m.lastRetired
	return func(pos int, e uint32) bool {
		survivor := live[e] == 0 && !added[e]
		switch orig := order[pos]; {
		case orig < anchor:
			return survivor
		case orig == anchor:
			return retired[e]
		default:
			return survivor || retired[e]
		}
	}
}

// anchored sums one complete enumeration per anchor hyperedge, each on the
// anchor's own plan and seeded at position 0 with the changed edges.
func (m *Miner) anchored(q *query, changed []uint32, family func(order []int, anchor int) func(int, uint32) bool, stats *engine.Stats) (uint64, error) {
	if len(changed) == 0 {
		return 0, nil
	}
	if err := m.ensureAnchorPlans(q); err != nil {
		return 0, err
	}
	var sum uint64
	for a, plan := range q.anchorPlans {
		res, err := engine.MineSeeded(m.store, plan, changed, m.mineOpts(family(plan.Order, a)))
		if err != nil {
			return 0, err
		}
		sum += res.Ordered
		stats.Add(res.Stats)
	}
	return sum, nil
}

// liveFilter masks retired physical edges out of a full mine.
func (m *Miner) liveFilter() func(int, uint32) bool {
	if m.live == len(m.retireEpoch) {
		return nil // no garbage: unmasked mining is exact
	}
	live := m.retireEpoch
	return func(_ int, e uint32) bool { return live[e] == 0 }
}

// RegisterQuery registers a standing pattern query. Isomorphic patterns
// (same canonical key) share one query: re-registering returns the existing
// query's info with Existing set. A fresh registration mines the current
// live graph for its baseline count and, with Config.Snapshot, rewrites the
// base before it returns.
func (m *Miner) RegisterQuery(p *pattern.Pattern) (QueryInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return QueryInfo{}, m.err
	}
	if p.Labeled() || p.EdgeLabeled() {
		return QueryInfo{}, errors.New("stream: labeled standing queries are not supported")
	}
	canon, ok := pattern.CanonicalKey(p)
	if !ok {
		canon = "lit:" + p.String()
	}
	if id, dup := m.byCanon[canon]; dup {
		info := m.queries[id].info()
		info.Existing = true
		// Same ack-crash healing as stale batches: a replayed registration
		// whose original ack was lost must not confirm undurable state.
		if m.dirty {
			if err := m.rebase(); err != nil {
				return info, err
			}
		}
		return info, nil
	}
	q := &query{
		id:        m.nextQID,
		p:         p,
		lit:       p.String(),
		canon:     canon,
		aut:       uint64(p.Automorphisms()),
		baseEpoch: m.epoch,
	}
	if m.store != nil {
		// The baseline is one full run, in the order Mine would choose.
		plan, err := engine.CompilePlan(m.store, q.p, m.planOpts())
		if err != nil {
			return QueryInfo{}, err
		}
		res, err := engine.MineWithPlan(m.store, plan, m.mineOpts(m.liveFilter()))
		if err != nil {
			return QueryInfo{}, err
		}
		q.base = res.Ordered
	}
	m.queries[q.id] = q
	m.byCanon[canon] = q.id
	m.nextQID++
	if m.cfg.Snapshot != nil {
		if err := m.rebase(); err != nil {
			return q.info(), err
		}
	}
	return q.info(), nil
}

// Queries lists all standing queries in ID order.
func (m *Miner) Queries() []QueryInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]QueryInfo, 0, len(m.queries))
	for _, q := range m.queries {
		out = append(out, q.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Query returns one standing query's info.
func (m *Miner) Query(id uint64) (QueryInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.queries[id]
	if !ok {
		return QueryInfo{}, false
	}
	return q.info(), true
}

// TotalCount mines the current live graph from scratch for p — the oracle
// the per-query cumulative totals are differential-tested against. When no
// retired garbage is present this is a plain (symmetry-broken) mine;
// otherwise retired edges are masked with an unrestricted plan. The mine
// runs outside the miner's lock against an immutable store snapshot.
func (m *Miner) TotalCount(p *pattern.Pattern) (engine.Result, error) {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return engine.Result{}, m.err
	}
	store := m.store
	var filter func(int, uint32) bool
	if store != nil && m.live != len(m.retireEpoch) {
		live := append([]uint64(nil), m.retireEpoch...)
		filter = func(_ int, e uint32) bool { return live[e] == 0 }
	}
	opts := m.mineOpts(filter)
	m.mu.Unlock()

	if store == nil {
		return engine.Result{Automorphisms: p.Automorphisms()}, nil
	}
	return engine.Mine(store, p, opts)
}

// LatestDelta counts the last applied batch's delta for an ad-hoc pattern
// (standing queries get this pushed as events). Valid until the next
// ApplyBatch.
func (m *Miner) LatestDelta(p *pattern.Pattern) (Delta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return Delta{}, m.err
	}
	if !m.haveLast {
		return Delta{}, errors.New("stream: no batch applied since open")
	}
	q := &query{p: p, aut: uint64(p.Automorphisms())}
	start := time.Now()
	added, retired, err := m.latestDelta(q, new(engine.Stats))
	if err != nil {
		return Delta{}, err
	}
	return Delta{
		Epoch:         m.epoch,
		Added:         added,
		Retired:       retired,
		AddedUnique:   added / q.aut,
		RetiredUnique: retired / q.aut,
		ElapsedMS:     float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}

// shouldCompact reports whether retired garbage crossed the threshold.
func (m *Miner) shouldCompact() bool {
	if m.cfg.CompactFraction < 0 {
		return false
	}
	garbage := len(m.retireEpoch) - m.live
	return garbage >= m.cfg.CompactMin &&
		float64(garbage) > m.cfg.CompactFraction*float64(len(m.retireEpoch))
}

// compact rebuilds the physical hypergraph from live edges only, remapping
// physical IDs (relative order preserved) and invalidating latest-batch
// marks.
func (m *Miner) compact() error {
	liveEdges := make([][]uint32, 0, m.live)
	addE := make([]uint64, 0, m.live)
	for id := range m.retireEpoch {
		if m.retireEpoch[id] == 0 {
			liveEdges = append(liveEdges, append([]uint32(nil), m.h.EdgeVertices(uint32(id))...))
			addE = append(addE, m.addEpoch[id])
		}
	}
	m.index = make(map[string]uint32, len(liveEdges))
	if len(liveEdges) == 0 {
		m.h = nil
		m.store = nil
		m.addEpoch = nil
		m.retireEpoch = nil
	} else {
		h, err := hypergraph.Build(m.cfg.NumVertices, liveEdges, nil)
		if err != nil {
			return err
		}
		if h.NumEdges() != len(liveEdges) {
			return errors.New("stream: compaction changed the live edge count")
		}
		m.h = h
		m.store = dal.Build(h)
		m.addEpoch = addE
		m.retireEpoch = make([]uint64, len(liveEdges))
		for id, e := range liveEdges {
			m.index[edgeKey(e)] = uint32(id)
		}
	}
	m.live = len(liveEdges)
	m.haveLast = false
	m.addedIDs, m.retiredIDs = nil, nil
	m.lastAdded, m.lastRetired = nil, nil
	// Cached query plans stay valid (IDs are runtime state, not plan state).
	return nil
}

// Epoch returns the number of batches applied.
func (m *Miner) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// LiveEdges returns the live hyperedge count.
func (m *Miner) LiveEdges() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live
}

// RetiredEdges returns the physical retired (garbage) edge count awaiting
// compaction.
func (m *Miner) RetiredEdges() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.retireEpoch) - m.live
}

// Hypergraph returns the current physical hypergraph — live edges plus
// not-yet-compacted retired ones — or nil while the stream is empty. The
// value is an immutable snapshot.
func (m *Miner) Hypergraph() *hypergraph.Hypergraph {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.h
}

// Store returns the DAL over the current physical hypergraph (see
// Hypergraph for the retired-edge caveat), or nil while empty.
func (m *Miner) Store() *dal.Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store
}

// LiveEdgeSets returns copies of the live hyperedge vertex sets — the
// from-scratch oracle's input.
func (m *Miner) LiveEdgeSets() [][]uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]uint32, 0, m.live)
	for id := range m.retireEpoch {
		if m.retireEpoch[id] == 0 {
			out = append(out, append([]uint32(nil), m.h.EdgeVertices(uint32(id))...))
		}
	}
	return out
}
