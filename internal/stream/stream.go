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
// each by anchoring on the embedding's smallest changed data-hyperedge ID:
// one run per automorphism orbit O of the pattern's hyperedges, in which
// O's smallest member binds that edge, weighted by |O|. The weighted runs
// count each embedding that touches a change |Aut| times, once per
// ordering, as a full unrestricted mine would, so
//
//	total(t) = total(t−1) + added(t) − retired(t)
//
// holds exactly (differential-tested against a from-scratch TotalCount in
// stream_test.go). An orbit's run uses a plan whose matching order starts at
// its smallest member and is seeded with the batch's changed edges, so its
// cost follows their neighbourhoods, not the live graph (docs/STREAMING.md,
// "Delta evaluation"). The runs need every ordered tuple visible, so anchor
// plans are compiled without symmetry-breaking restrictions; counts are
// ordered, and unique counts divide by the automorphism count.
//
// Batches are fully validated before any state is touched: a rejected
// batch leaves the miner exactly as it was (the internal/dynamic
// state-poisoning bug class this package retires).
package stream

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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

	// Engine templates the options for all query evaluation (Workers,
	// Instrument). Run-shaping fields — Limit, OnEmbedding,
	// PositionFilter, Checkpoint — are ignored: delta counting needs
	// complete runs, and the miner owns the position filters.
	Engine engine.Options

	// Snapshot, when set, makes the stream durable: every applied batch
	// appends one record to its log, fsynced before ApplyBatch returns, and
	// the base snapshot is written when NewMiner creates the stream, on every
	// (non-deduplicated) query registration and when the log outgrows it
	// (log.go). LoadFile reopens the files and appends to the log.
	Snapshot *FileSink
}

// A compaction — a rebuild of the hypergraph and its DAL from live edges
// only, the one full layout of a non-empty stream — runs before a batch once
// at least compactMin retired edges (each costs every candidate a mask test)
// exceed compactFraction of the physical edges, or once the arena entries
// growth in place moved (they cost only memory) exceed twice the live ones
// and compactMoved (never less than compactMin).
const (
	compactFraction = 0.25
	compactMin      = 64
	compactMoved    = 4096
)

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
	// Compacted reports that this apply began by laying the store out afresh
	// from its live edges, renumbered, without the moved arena entries.
	Compacted bool
	// Elapsed is the wall-clock time of the whole apply (compaction,
	// derived-state maintenance + query evaluation, excluding snapshot I/O).
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
	// automorphism count (exact: the orbit-weighted anchored runs count each
	// embedding once per automorphism).
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
	id  uint64
	p   *pattern.Pattern
	lit string
	aut uint64
	// anchorPlans holds one anchored run per automorphism orbit of the
	// pattern's hyperedges. Compiled lazily, on the first batch that needs
	// them.
	anchorPlans []anchorPlan
	baseEpoch   uint64
	base        uint64 // ordered count at registration
	cumAdd      uint64
	cumRet      uint64
	seq         uint64
}

// anchorPlan is the delta run of one orbit O: an unrestricted plan whose
// position 0 is O's smallest member and the rest is ordered by cost on the
// store, and |O|, the weight of its count.
type anchorPlan struct {
	plan   *oig.Plan
	weight uint64
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

	// Physical state. h/store are nil until the first edge is laid out; both
	// are replaced wholesale on growth (old values stay valid for concurrent
	// readers). addEpoch/retireEpoch are indexed by physical edge ID;
	// retireEpoch 0 means live. pending holds the vertex sets of the last
	// len(pending) IDs, committed but not laid out yet: a batch's new edges
	// until its layout, every edge while a load replays its log.
	h           *hypergraph.Hypergraph
	store       *dal.Store
	addEpoch    []uint64
	retireEpoch []uint64
	live        int
	index       map[string]uint32 // normalized vertex set → physical ID
	pending     [][]uint32

	// expiry holds an entry for each time an edge's window clock was set —
	// on add, refresh and resurrection — in add-epoch order, so planBatch
	// finds the expired edges at its head instead of scanning every edge. An
	// entry whose edge was retired or re-clocked since is stale and skipped.
	// Kept only with Config.Window; rebuild sorts it afresh.
	expiry []clockEntry

	// Latest-batch changes, valid between applies: the ID lists seed the
	// anchored delta runs, the marks (indexed by physical edge ID) drive
	// their filters. The next apply clears the marks through the ID lists.
	addedIDs    []uint32
	retiredIDs  []uint32
	lastAdded   []bool
	lastRetired []bool
	haveLast    bool

	queries map[uint64]*query
	byCanon map[string]uint64
	nextQID uint64

	// The compaction threshold: compactMin and compactFraction, which tests
	// lower to force compaction or raise to forbid it.
	compactMin      int
	compactFraction float64

	// The durable files (log.go), with Config.Snapshot: the open log, the
	// size of the base it extends, and dirty, set when applied state did not
	// reach them; stale replays re-attempt the write before confirming,
	// closing the ack-crash gap.
	log      *durable.Log
	baseSize int64
	dirty    bool

	// runs counts the anchored engine runs made so far.
	runs int
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

// clockEntry is one setting of an edge's window clock: the edge and the
// epoch it was set to.
type clockEntry struct {
	epoch uint64
	id    uint32
}

// newMiner creates an empty stream without touching the durable files.
func newMiner(cfg Config) (*Miner, error) {
	if cfg.NumVertices <= 0 {
		return nil, errors.New("stream: NumVertices must be positive")
	}
	return &Miner{
		cfg:             cfg,
		index:           map[string]uint32{},
		queries:         map[uint64]*query{},
		byCanon:         map[string]uint64{},
		nextQID:         1,
		compactMin:      compactMin,
		compactFraction: compactFraction,
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
	slices.Sort(e)
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
func (m *Miner) mineOpts(filter func(pos int, edge, anchor uint32) bool) engine.Options {
	o := m.cfg.Engine
	o.Limit = 0
	o.OnEmbedding = nil
	o.Checkpoint = nil
	o.CheckpointEvery = 0
	o.PositionFilter = filter
	if filter != nil {
		o.NoSymmetryBreak = true
	}
	return o
}

// ensureAnchorPlans lazily compiles q's anchor-first plans, one per orbit,
// each in the order oig.ChooseOrder picks on the current store with position
// 0 fixed at the orbit's smallest member (plans carry only pattern
// semantics, so a plan compiled once stays correct as the store evolves).
func (m *Miner) ensureAnchorPlans(q *query) error {
	if q.anchorPlans != nil {
		return nil
	}
	reps, sizes := q.p.Orbits()
	plans := make([]anchorPlan, len(reps))
	for i, r := range reps {
		// Unrestricted: anchored counting must see every ordered tuple.
		plan, err := engine.CompilePlanOrdered(q.p, oig.ChooseOrder(m.store, q.p, r), engine.Options{NoSymmetryBreak: true})
		if err != nil {
			return err
		}
		plans[i] = anchorPlan{plan: plan, weight: uint64(sizes[i])}
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
	expire        []uint32 // live edges to retire (window), ascending
	readd         []uint32 // live edges retired AND re-added in this batch
	clocks        int      // expiry entries examined, dropped on apply
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

	// Window expiry over pre-batch live edges: the clock entries up to the
	// cutoff that are still current, skipping edges this batch refreshes,
	// retires, or re-adds (their clocks are handled above).
	if w := m.cfg.Window; w > 0 && t > w {
		cutoff := t - w
		refreshing := map[uint32]bool{}
		for _, id := range ap.refresh {
			refreshing[id] = true
		}
		for ; ap.clocks < len(m.expiry) && m.expiry[ap.clocks].epoch <= cutoff; ap.clocks++ {
			c := m.expiry[ap.clocks]
			if m.retireEpoch[c.id] == 0 && m.addEpoch[c.id] == c.epoch && !retiring[c.id] && !refreshing[c.id] {
				ap.expire = append(ap.expire, c.id)
			}
		}
		slices.Sort(ap.expire)
	}
	return ap, nil
}

// setClock sets edge id's window clock to epoch t.
func (m *Miner) setClock(id uint32, t uint64) {
	m.addEpoch[id] = t
	if m.cfg.Window > 0 {
		m.expiry = append(m.expiry, clockEntry{t, id})
	}
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
	start := time.Now()

	// Compact first: the previous batch's change marks served LatestDelta
	// until now.
	compacted := m.shouldCompact()
	if compacted {
		if err := m.rebuild(m.liveEdges()); err != nil {
			m.err = fmt.Errorf("stream: compaction failed, miner poisoned (restart from snapshot): %w", err)
			return nil, m.err
		}
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

	// Mutate. Everything below must succeed or latch m.err: the log record
	// simply isn't written on failure, so a restart recovers consistency.
	res := &BatchResult{
		Epoch:     m.epoch + 1,
		Added:     len(ap.newEdges) + len(ap.resurrect) + len(ap.readd),
		Retired:   len(ap.retire),
		Expired:   len(ap.expire),
		Refreshed: len(ap.refresh),
		Compacted: compacted,
	}
	m.commit(ap)
	if err := m.layout(); err != nil {
		m.err = fmt.Errorf("stream: apply failed mid-mutation, miner poisoned (restart from snapshot): %w", err)
		return nil, m.err
	}
	m.mark(ap)

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

// commit applies ap's bookkeeping as batch m.epoch+1: it gives the new edges
// their IDs and keeps their vertex sets pending for layout, drops the clock
// entries planBatch examined, sets the retire epochs and window clocks, and
// advances the epoch. It touches no store and no latest-batch mark, so a
// load replays its log through planBatch and commit alone (log.go).
func (m *Miner) commit(ap *applyPlan) {
	t := m.epoch + 1
	m.expiry = m.expiry[ap.clocks:]
	base := uint32(len(m.addEpoch))
	m.addEpoch = append(m.addEpoch, make([]uint64, len(ap.newEdges))...)
	m.retireEpoch = append(m.retireEpoch, make([]uint64, len(ap.newEdges))...)
	for i, key := range ap.newKeys {
		m.index[key] = base + uint32(i)
		m.setClock(base+uint32(i), t)
	}
	m.pending = append(m.pending, ap.newEdges...)
	m.live += len(ap.newEdges)
	for _, ids := range [...][]uint32{ap.retire, ap.expire} {
		for _, id := range ids {
			m.retireEpoch[id] = t
			m.live--
		}
	}
	// Readd IDs are a subset of ap.retire, retired just above: they come
	// back live, counted on both sides of the delta.
	for _, ids := range [...][]uint32{ap.resurrect, ap.readd} {
		for _, id := range ids {
			m.retireEpoch[id] = 0
			m.setClock(id, t)
			m.live++
		}
	}
	for _, id := range ap.refresh {
		// Re-adding a live edge resets its window clock only — no delta.
		m.setClock(id, t)
	}
	m.epoch = t
}

// layout lays the pending edges out: appended in place to the hypergraph
// and its DAL (Extend, BuildDelta), or, while the miner has no store, built
// afresh (Build). On error they stay pending.
func (m *Miner) layout() error {
	if len(m.pending) == 0 {
		return nil
	}
	var h *hypergraph.Hypergraph
	var err error
	if m.h == nil {
		h, err = hypergraph.Build(m.cfg.NumVertices, m.pending, nil)
	} else {
		h, err = hypergraph.Extend(m.h, m.pending)
	}
	switch {
	case err != nil:
		return err
	case h.NumEdges() != len(m.addEpoch):
		return errors.New("stream: layout deduplicated edges")
	case m.store == nil:
		m.store = dal.Build(h)
	default:
		m.store = dal.BuildDelta(m.store, h)
	}
	m.h, m.pending = h, nil
	return nil
}

// mark makes the batch just committed and laid out the latest change: its
// added and retired IDs seed the anchored delta runs, and their marks drive
// the runs' filters. The previous batch's marks are cleared through its ID
// lists.
func (m *Miner) mark(ap *applyPlan) {
	for _, id := range m.addedIDs {
		m.lastAdded[id] = false
	}
	for _, id := range m.retiredIDs {
		m.lastRetired[id] = false
	}
	n := len(m.addEpoch)
	m.lastAdded = append(m.lastAdded, make([]bool, n-len(m.lastAdded))...)
	m.lastRetired = append(m.lastRetired, make([]bool, n-len(m.lastRetired))...)
	m.addedIDs, m.retiredIDs = m.addedIDs[:0], m.retiredIDs[:0]
	for id := n - len(ap.newEdges); id < n; id++ {
		m.addedIDs = append(m.addedIDs, uint32(id))
	}
	m.addedIDs = append(append(m.addedIDs, ap.resurrect...), ap.readd...)
	m.retiredIDs = append(append(m.retiredIDs, ap.retire...), ap.expire...)
	for _, id := range m.addedIDs {
		m.lastAdded[id] = true
	}
	for _, id := range m.retiredIDs {
		m.lastRetired[id] = true
	}
	m.haveLast = true
}

// evaluate runs the anchored delta counts for every standing query, in ID
// order, and commits the cumulative counters.
func (m *Miner) evaluate(stats *engine.Stats) ([]Delta, error) {
	if len(m.queries) == 0 {
		return nil, nil
	}
	ids := m.queryIDs()
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
	if added, err = m.anchored(q, m.addedIDs, m.addFilter(), stats); err != nil {
		return 0, 0, err
	}
	retired, err = m.anchored(q, m.retiredIDs, m.retireFilter(), stats)
	return added, retired, err
}

// The anchored filters. An embedding that touches a change is counted in
// the run of the orbit that holds the pattern hyperedge bound to its
// smallest changed data-hyperedge ID: position 0 binds that edge, the
// anchor, and no other position binds a changed edge with a smaller ID.

// addFilter is the anchored filter for added(t): the anchor is an edge
// added this batch, every other position a live edge that is not an added
// edge with a smaller ID.
func (m *Miner) addFilter() func(int, uint32, uint32) bool {
	live, added := m.retireEpoch, m.lastAdded
	return func(pos int, e, anchor uint32) bool {
		switch {
		case pos == 0:
			return added[e]
		case added[e]:
			return e > anchor
		default:
			return live[e] == 0
		}
	}
}

// retireFilter is the anchored filter for retired(t): it enumerates
// embeddings of graph(t−1) — survivors plus this batch's retirees — whose
// anchor is an edge retired this batch and whose other positions bind no
// retiree with a smaller ID.
func (m *Miner) retireFilter() func(int, uint32, uint32) bool {
	live, added, retired := m.retireEpoch, m.lastAdded, m.lastRetired
	return func(pos int, e, anchor uint32) bool {
		switch {
		case pos == 0:
			return retired[e]
		case retired[e]:
			return e > anchor
		default:
			return live[e] == 0 && !added[e]
		}
	}
}

// anchored sums, over q's orbits, the orbit's weight times one complete
// enumeration on its plan, seeded at position 0 with the changed edges.
// Each unordered embedding's minimum changed edge lies in one orbit O, and
// |Aut|/|O| of its orderings bind it at O's plan's position 0, so the sum is
// the ordered count of the embeddings that touch a change.
func (m *Miner) anchored(q *query, changed []uint32, filter func(int, uint32, uint32) bool, stats *engine.Stats) (uint64, error) {
	if len(changed) == 0 {
		return 0, nil
	}
	if err := m.ensureAnchorPlans(q); err != nil {
		return 0, err
	}
	opts := m.mineOpts(filter)
	var sum uint64
	for _, ap := range q.anchorPlans {
		res, err := engine.MineSeeded(m.store, ap.plan, changed, opts)
		if err != nil {
			return 0, err
		}
		m.runs++
		if sum, err = engine.MulAdd(sum, ap.weight, res.Ordered); err != nil {
			return 0, err
		}
		stats.Add(res.Stats)
	}
	return sum, nil
}

// liveFilter masks retired physical edges out of a full mine.
func (m *Miner) liveFilter() func(int, uint32, uint32) bool {
	if m.live == len(m.retireEpoch) {
		return nil // no garbage: unmasked mining is exact
	}
	live := m.retireEpoch
	return func(_ int, e, _ uint32) bool { return live[e] == 0 }
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
	canon, _ := pattern.CanonicalKey(p)
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
	var base uint64
	if m.store != nil {
		// The baseline is one full run, as TotalCount mines it: restricted
		// when no retired garbage has to be masked.
		res, err := engine.Mine(m.store, p, m.mineOpts(m.liveFilter()))
		if err != nil {
			return QueryInfo{}, err
		}
		base = res.Ordered
	}
	q := m.addQuery(m.nextQID, p, canon, m.epoch)
	q.base = base
	m.nextQID++
	if m.cfg.Snapshot != nil {
		if err := m.rebase(); err != nil {
			return q.info(), err
		}
	}
	return q.info(), nil
}

// addQuery installs a standing query for p with zero counters.
func (m *Miner) addQuery(id uint64, p *pattern.Pattern, canon string, baseEpoch uint64) *query {
	q := &query{id: id, p: p, lit: p.String(), aut: uint64(p.Automorphisms()), baseEpoch: baseEpoch}
	m.queries[id] = q
	m.byCanon[canon] = id
	return q
}

// Queries lists all standing queries in ID order.
func (m *Miner) Queries() []QueryInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]QueryInfo, 0, len(m.queries))
	for _, id := range m.queryIDs() {
		out = append(out, m.queries[id].info())
	}
	return out
}

// queryIDs lists the standing queries' IDs in ascending order, the order of
// deltas, snapshots and log records. Caller holds m.mu.
func (m *Miner) queryIDs() []uint64 {
	ids := make([]uint64, 0, len(m.queries))
	for id := range m.queries {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
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
	var filter func(int, uint32, uint32) bool
	if store != nil && m.live != len(m.retireEpoch) {
		live := append([]uint64(nil), m.retireEpoch...)
		filter = func(_ int, e, _ uint32) bool { return live[e] == 0 }
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

// shouldCompact reports whether the retired edges or the entries moved in
// the store's adjacency, group and vertex-list arenas crossed their bound.
func (m *Miner) shouldCompact() bool {
	if m.store == nil {
		return false
	}
	retired := len(m.retireEpoch) - m.live
	sm, sl := m.store.Moved()
	hm, hl := m.h.Moved()
	return retired >= m.compactMin && float64(retired) > m.compactFraction*float64(len(m.retireEpoch)) ||
		sm+hm > max(2*(sl+hl), compactMoved, m.compactMin)
}

// install makes edges, in order and all live, the whole bookkeeping: the
// vertex-set index, the epochs and the expiry queue, renumbering physical
// IDs (relative order preserved) and dropping the latest-batch marks. The
// miner then has no store: every vertex set is pending until layout.
func (m *Miner) install(edges []SnapshotEdge) {
	m.h, m.store = nil, nil
	m.haveLast = false
	m.addedIDs, m.retiredIDs, m.lastAdded, m.lastRetired = nil, nil, nil, nil
	m.index = make(map[string]uint32, len(edges))
	m.addEpoch, m.retireEpoch = make([]uint64, len(edges)), make([]uint64, len(edges))
	m.expiry = nil
	m.pending = make([][]uint32, len(edges))
	for i, e := range edges {
		m.setClock(uint32(i), e.AddEpoch)
		m.index[edgeKey(e.Verts)] = uint32(i)
		m.pending[i] = e.Verts
	}
	slices.SortStableFunc(m.expiry, func(a, b clockEntry) int { return cmp.Compare(a.epoch, b.epoch) })
	m.live = len(edges)
}

// rebuild makes edges, in order and all live, the whole physical state:
// install's bookkeeping, laid out afresh. It is the one full layout, shared
// by loads and compaction; cached query plans stay valid (IDs are runtime
// state, not plan state).
func (m *Miner) rebuild(edges []SnapshotEdge) error {
	m.install(edges)
	return m.layout()
}

// verts returns physical edge id's vertex set, laid out or pending.
func (m *Miner) verts(id uint32) []uint32 {
	if laid := len(m.addEpoch) - len(m.pending); int(id) >= laid {
		return m.pending[int(id)-laid]
	}
	return m.h.EdgeVertices(id)
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
	edges := m.liveEdges()
	out := make([][]uint32, len(edges))
	for i, e := range edges {
		out[i] = e.Verts
	}
	return out
}
