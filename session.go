package ohminer

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"ohminer/internal/engine"
	"ohminer/internal/pattern"
)

// DefaultResultCacheCapacity is the result cache size a new Session starts
// with; SetResultCacheCapacity overrides it.
const DefaultResultCacheCapacity = 256

// maxCachedPlans bounds the plan cache, so a client sending ever new
// patterns cannot grow a serving Session without bound; serve_mix's
// patterns fit many times over.
const maxCachedPlans = 4096

// Session binds a store to two caches so repeated queries skip redundant
// work:
//
//   - a compiled-plan cache keyed on the pattern's canonical form, so every
//     way of writing the same pattern — any isomorphic literal — shares one
//     plan. Compilation is sub-millisecond (Table 6's OIG-T), but a service
//     answering thousands of queries per second over the same store — the
//     deployment the paper's API discussion envisions — should not redo
//     pattern analysis per request. It holds at most maxCachedPlans plans
//     and drops an arbitrary one when full. Concurrent first requests for
//     the same pattern compile once (the laggards wait for the winner);
//   - a bounded LRU result cache over complete counting runs: a repeat of a
//     query whose options do not observe per-run state (no limit, no
//     embedding callback, no checkpointing, no instrumentation) returns the
//     cached Result without touching the engine. Each store build is
//     immutable, so a cached count never silently goes stale; results are
//     additionally keyed by the dataset's content fingerprint, so swapping
//     the session onto a new store version with SetStore invalidates them
//     implicitly — and swapping back to identical content revalidates them.
//     Cached results keep their original Elapsed and Stats.
//
// Plans are compiled from the canonical pattern, so WithEmbeddings
// callbacks through a Session report hyperedge IDs in the canonical plan's
// matching order — identical for every isomorphic literal of the query.
// Counts (Unique, Ordered) are isomorphism-invariant and unaffected.
//
// Sessions are safe for concurrent use.
type Session struct {
	st atomic.Pointer[storeState]

	mu    sync.Mutex
	plans map[sessionKey]*planEntry

	hits   atomic.Uint64
	misses atomic.Uint64

	rmu      sync.Mutex
	results  map[resultKey]*list.Element
	lru      *list.List
	capacity int

	rhits   atomic.Uint64
	rmisses atomic.Uint64
}

// storeState pairs a store with its dataset fingerprint so both swap
// atomically under SetStore: a concurrent query either sees the old pair or
// the new pair, never a store keyed under the wrong dataset version.
type storeState struct {
	store *Store
	fp    uint64
}

// sessionKey identifies one compiled plan: the pattern's canonical key, which
// isomorphic literals share, plus every option that changes what the compiler
// emits. Two queries with equal keys are answered by the same computation,
// so the key doubles as the result-cache identity.
type sessionKey struct {
	canon      string
	restricted bool // symmetry-breaking restrictions compiled in
}

// planEntry is one plan-cache slot. The sync.Once makes compilation
// single-flight: the first goroutine to reach a fresh entry compiles while
// any concurrent requester for the same key blocks in Do and then reads the
// shared outcome — the compiler runs exactly once per key.
type planEntry struct {
	once sync.Once
	plan *Plan
	err  error
}

// NewSession creates a query session over the store.
func NewSession(store *Store) *Session {
	s := &Session{
		plans:    map[sessionKey]*planEntry{},
		results:  map[resultKey]*list.Element{},
		lru:      list.New(),
		capacity: DefaultResultCacheCapacity,
	}
	s.st.Store(newStoreState(store))
	return s
}

func newStoreState(store *Store) *storeState {
	ss := &storeState{store: store}
	if store != nil {
		ss.fp = store.Hypergraph().Fingerprint()
	}
	return ss
}

// Store returns the session's current store.
func (s *Session) Store() *Store { return s.st.Load().store }

// SetStore repoints the session at a new store version — the streaming
// subsystem's compaction and reload paths, or any dataset refresh, produce
// these. The plan cache is retained — a plan counts correctly on any store,
// though its matching order was chosen by cost on the store it was first
// compiled against — while cached results stop matching
// automatically because they are keyed under the previous dataset
// fingerprint: a swap to different content misses, a swap back to
// byte-identical content hits again. In-flight queries complete against
// whichever store they started on.
func (s *Session) SetStore(store *Store) {
	s.st.Store(newStoreState(store))
}

// DatasetFingerprint returns the content hash of the session's current
// dataset — the value result-cache entries are keyed under.
func (s *Session) DatasetFingerprint() uint64 { return s.st.Load().fp }

// Mine runs a query, reusing a cached plan (and, for pure counting queries,
// a cached result) when one exists for the pattern's isomorphism class. All
// Mine options apply.
func (s *Session) Mine(p *Pattern, opts ...Option) (Result, error) {
	return s.MineContext(context.Background(), p, opts...)
}

// MineContext is Mine with caller-controlled cancellation: when ctx is
// cancelled mid-run the engine unwinds cooperatively and the call returns
// the partial Result together with ctx.Err(). This is the entry point the
// ohmserve query service drives — one context per request covers the
// client disconnecting, per-request deadlines, and server drain.
func (s *Session) MineContext(ctx context.Context, p *Pattern, opts ...Option) (Result, error) {
	c := buildOptions(opts)
	o := c.Options
	// One atomic load pins this query to a single (store, fingerprint)
	// pair; a concurrent SetStore cannot split the run across versions.
	cur := s.st.Load()
	plan, key, err := s.plan(p, o, cur.store)
	if err != nil {
		return Result{}, err
	}
	mine := func(ctx context.Context) (Result, error) {
		return engine.MineWithPlanContext(ctx, cur.store, plan, o)
	}
	if !resultCacheable(o) {
		return bounded(ctx, c.deadline, mine)
	}
	rkey := resultKey{sessionKey: key, fp: cur.fp}
	if res, ok := s.lookupResult(rkey); ok {
		return res, nil
	}
	res, err := bounded(ctx, c.deadline, mine)
	if err == nil && !res.Truncated {
		// Only complete, successful runs are reusable answers; a partial
		// count (deadline, cancellation) must never shadow the real one.
		s.storeResult(rkey, res)
	}
	return res, err
}

// CachedPlans reports how many distinct plans the session holds.
func (s *Session) CachedPlans() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.plans)
}

// CacheStats reports how many queries reused a cached plan (hits) and how
// many compiled a fresh one (misses) over the session's lifetime.
func (s *Session) CacheStats() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// CachedResults reports how many complete query results the session holds.
func (s *Session) CachedResults() int {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	return s.lru.Len()
}

// ResultCacheStats reports, over cacheable queries only (no limit, no
// embedding callback, no checkpointing, no instrumentation), how many were
// answered from the result cache (hits) and how many ran the engine
// (misses).
func (s *Session) ResultCacheStats() (hits, misses uint64) {
	return s.rhits.Load(), s.rmisses.Load()
}

// SetResultCacheCapacity bounds the result cache to n entries, evicting
// least-recently-used entries if it currently holds more; n <= 0 disables
// result caching and drops every held result. The plan cache is unaffected.
func (s *Session) SetResultCacheCapacity(n int) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	s.capacity = n
	s.evictOver()
}

// plan returns the compiled plan for (p, o) and its cache key, compiling at
// most once per key across concurrent callers.
func (s *Session) plan(p *Pattern, o engine.Options, store *Store) (*Plan, sessionKey, error) {
	key := sessionKey{
		// Mirrors engine.CompilePlan's restriction gating so the key always
		// names the plan that call will produce.
		restricted: !o.NoSymmetryBreak && o.PositionFilter == nil,
	}
	// One canonical search per request: a hit needs only its key, and a miss
	// realizes the representative from the same search.
	// Isomorphic literals share this key (Theorem 1 extended with label
	// multisets); the plan itself is compiled from the canonical
	// representative so every literal maps onto the identical plan.
	key.canon, _ = pattern.CanonicalKey(p)

	s.mu.Lock()
	e, ok := s.plans[key]
	if !ok {
		if len(s.plans) >= maxCachedPlans {
			for k := range s.plans { // evict one; a waiter on it still reads its outcome
				delete(s.plans, k)
				break
			}
		}
		e = &planEntry{}
		s.plans[key] = e
	}
	s.mu.Unlock()

	compiled := false
	e.once.Do(func() {
		compiled = true
		cp, _ := pattern.Canonical(p)
		e.plan, e.err = engine.CompilePlan(store, cp, o)
	})
	if compiled {
		s.misses.Add(1)
		if e.err != nil {
			// Evict failed entries so CachedPlans counts plans, not errors
			// (recompiling a failing pattern is cheap and the error is
			// deterministic either way).
			s.mu.Lock()
			if s.plans[key] == e {
				delete(s.plans, key)
			}
			s.mu.Unlock()
		}
	} else {
		s.hits.Add(1)
	}
	return e.plan, key, e.err
}

// resultCacheable reports whether a query's options allow answering it from
// (and storing it into) the result cache: nothing about the run may observe
// per-run state. Limits change the counts themselves, embedding callbacks
// and checkpoint sinks are side effects the caller expects to fire, and
// instrumented runs want freshly measured Stats. A deadline (WithDeadline)
// merely bounds the run: a cached complete result satisfies any deadline,
// and truncated runs are never stored.
func resultCacheable(o engine.Options) bool {
	return o.Limit == 0 && o.OnEmbedding == nil && o.Checkpoint == nil &&
		o.PositionFilter == nil && !o.Instrument
}

// resultKey is the result cache identity: the plan-cache key plus the
// dataset fingerprint the result was computed against. Entries for stale
// dataset versions stop matching the moment SetStore installs new content
// and age out of the LRU naturally.
type resultKey struct {
	sessionKey
	fp uint64
}

// resultEntry is one LRU slot; the key rides along for map cleanup on
// eviction.
type resultEntry struct {
	key resultKey
	res Result
}

func (s *Session) lookupResult(key resultKey) (Result, bool) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	if el, ok := s.results[key]; ok {
		s.lru.MoveToFront(el)
		s.rhits.Add(1)
		return el.Value.(*resultEntry).res, true
	}
	s.rmisses.Add(1)
	return Result{}, false
}

func (s *Session) storeResult(key resultKey, res Result) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	if s.capacity <= 0 {
		return
	}
	if el, ok := s.results[key]; ok {
		el.Value.(*resultEntry).res = res
		s.lru.MoveToFront(el)
		return
	}
	s.results[key] = s.lru.PushFront(&resultEntry{key: key, res: res})
	s.evictOver()
}

// evictOver trims the LRU to capacity; callers hold rmu.
func (s *Session) evictOver() {
	for s.lru.Len() > s.capacity && s.lru.Len() > 0 {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.results, back.Value.(*resultEntry).key)
	}
}
