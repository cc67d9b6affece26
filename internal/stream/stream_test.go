package stream

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/hypergraph"
	"ohminer/internal/pattern"
)

// oracle mines the given edge sets from scratch — the ground truth every
// streamed cumulative count must equal exactly.
func oracle(t *testing.T, nv int, sets [][]uint32, p *pattern.Pattern, opts engine.Options) uint64 {
	t.Helper()
	if len(sets) == 0 {
		return 0
	}
	h, err := hypergraph.Build(nv, sets, nil)
	if err != nil {
		t.Fatalf("oracle build: %v", err)
	}
	res, err := engine.Mine(dal.Build(h), p, opts)
	if err != nil {
		t.Fatalf("oracle mine: %v", err)
	}
	return res.Ordered
}

func testPatterns() []*pattern.Pattern {
	return []*pattern.Pattern{
		pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil),
		pattern.MustNew([][]uint32{{0, 1, 2}, {2, 3}}, nil),
		pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil),
	}
}

// randRaw returns n raw (unnormalized) vertex lists.
func randRaw(rng *rand.Rand, nv, n int) [][]uint32 {
	out := make([][]uint32, n)
	for i := range out {
		sz := 2 + rng.Intn(3)
		for j := 0; j < sz; j++ {
			out[i] = append(out[i], uint32(rng.Intn(nv)))
		}
	}
	return out
}

// feedAndCheck drives a scripted random stream against m, asserting after
// every batch that each standing query's cumulative total exactly equals a
// from-scratch mine of the live graph.
func feedAndCheck(t *testing.T, m *Miner, rng *rand.Rand, nv, batches int, withRetires bool, opts engine.Options) {
	t.Helper()
	pats := testPatterns()
	infos := make([]QueryInfo, len(pats))
	for i, p := range pats {
		info, err := m.RegisterQuery(p)
		if err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		infos[i] = info
	}
	for b := 0; b < batches; b++ {
		batch := Batch{Add: randRaw(rng, nv, 3+rng.Intn(5))}
		if withRetires {
			live := m.LiveEdgeSets()
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			k := rng.Intn(3)
			if k > len(live) {
				k = len(live)
			}
			batch.Retire = live[:k]
		}
		res, err := m.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if len(res.Deltas) != len(pats) {
			t.Fatalf("batch %d: %d deltas for %d queries", b, len(res.Deltas), len(pats))
		}
		sets := m.LiveEdgeSets()
		for i, p := range pats {
			want := oracle(t, nv, sets, p, opts)
			d := res.Deltas[i]
			if d.QueryID != infos[i].ID {
				t.Fatalf("batch %d: delta %d for query %d", b, i, d.QueryID)
			}
			if d.Total != want {
				t.Fatalf("batch %d pattern %d: streamed total %d (added %d retired %d), oracle %d",
					b, i, d.Total, d.Added, d.Retired, want)
			}
			tc, err := m.TotalCount(p)
			if err != nil {
				t.Fatalf("batch %d: TotalCount: %v", b, err)
			}
			if tc.Ordered != want {
				t.Fatalf("batch %d pattern %d: TotalCount %d, oracle %d", b, i, tc.Ordered, want)
			}
			if d.Unique != want/uint64(p.Automorphisms()) {
				t.Fatalf("batch %d pattern %d: unique %d, want %d/%d", b, i, d.Unique, want, p.Automorphisms())
			}
		}
	}
}

// TestStreamDifferential is the acceptance-criteria suite: streamed
// cumulative counts equal from-scratch TotalCount after every batch, for
// add-only and add+retire sequences. (The subtests keep the adaptive/steal
// prefix they had while the engine took a kernel family and a second
// scheduler as options: same cases, same IDs in test history.)
func TestStreamDifferential(t *testing.T) {
	for _, withRetires := range []bool{false, true} {
		mode := "adaptive/steal/addonly"
		if withRetires {
			mode = "adaptive/steal/retire"
		}
		t.Run(mode, func(t *testing.T) {
			opts := engine.Options{Workers: 2}
			m, err := NewMiner(Config{NumVertices: 18, Engine: opts})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(805))
			// Seed the stream before registering queries so baselines
			// are non-trivial.
			if _, err := m.ApplyBatch(Batch{Add: randRaw(rng, 18, 12)}); err != nil {
				t.Fatal(err)
			}
			feedAndCheck(t, m, rng, 18, 4, withRetires, opts)
		})
	}
}

// TestValidateBeforeMutate is the regression test for the internal/dynamic
// state-poisoning bug: a rejected batch must leave the miner untouched and
// later batches must count correctly.
func TestValidateBeforeMutate(t *testing.T) {
	m, err := NewMiner(Config{NumVertices: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)
	if _, err := m.RegisterQuery(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyBatch(Batch{Add: [][]uint32{{0, 1}, {1, 2}}}); err != nil {
		t.Fatal(err)
	}

	bad := []Batch{
		{Add: [][]uint32{{2, 3}, {7, 99}}},                    // vertex out of range
		{Add: [][]uint32{{2, 3}}, Retire: [][]uint32{{4, 5}}}, // retire of unknown edge
		{Add: [][]uint32{{2, 3}, {}}},                         // empty hyperedge
	}
	for i, b := range bad {
		if _, err := m.ApplyBatch(b); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
		if m.Epoch() != 1 {
			t.Fatalf("bad batch %d advanced epoch to %d", i, m.Epoch())
		}
		if m.LiveEdges() != 2 {
			t.Fatalf("bad batch %d poisoned state: %d live edges", i, m.LiveEdges())
		}
	}

	// The good parts of a previously rejected batch apply cleanly afterward.
	res, err := m.ApplyBatch(Batch{Add: [][]uint32{{2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, 8, m.LiveEdgeSets(), p, engine.Options{Workers: 1})
	if res.Deltas[0].Total != want {
		t.Fatalf("total %d after recovery, oracle %d", res.Deltas[0].Total, want)
	}
}

// TestWindowExpiry: with Window=2, an edge added at epoch t is auto-retired
// applying epoch t+2 unless refreshed.
func TestWindowExpiry(t *testing.T) {
	m, err := NewMiner(Config{NumVertices: 8, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)
	if _, err := m.RegisterQuery(p); err != nil {
		t.Fatal(err)
	}
	// Epoch 1: chain 0-1-2.
	r1, err := m.ApplyBatch(Batch{Add: [][]uint32{{0, 1}, {1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Deltas[0].Total != 2 { // ordered: both orders of the chain
		t.Fatalf("epoch 1 total %d", r1.Deltas[0].Total)
	}
	// Epoch 2: refresh {0,1}, add {2,3}.
	r2, err := m.ApplyBatch(Batch{Add: [][]uint32{{0, 1}, {2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Refreshed != 1 || r2.Added != 1 || r2.Expired != 0 {
		t.Fatalf("epoch 2: %+v", r2)
	}
	// Epoch 3: {1,2} (added epoch 1, never refreshed) expires; {0,1} lives.
	r3, err := m.ApplyBatch(Batch{Add: [][]uint32{{4, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Expired != 1 {
		t.Fatalf("epoch 3 expired %d", r3.Expired)
	}
	sets := m.LiveEdgeSets()
	if len(sets) != 3 { // {0,1}, {2,3}, {4,5}
		t.Fatalf("live %v", sets)
	}
	want := oracle(t, 8, sets, p, engine.Options{})
	if r3.Deltas[0].Total != want {
		t.Fatalf("epoch 3 total %d, oracle %d", r3.Deltas[0].Total, want)
	}
	// Epoch 4: everything from epoch ≤2 expires.
	r4, err := m.ApplyBatch(Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Expired != 2 || m.LiveEdges() != 1 {
		t.Fatalf("epoch 4: expired %d live %d", r4.Expired, m.LiveEdges())
	}
}

// TestRebuildMatchesIncremental: the incrementally maintained hypergraph and
// DAL answer like ones rebuilt from the live edges after every batch (the
// oracle helper), total for total and net delta for net delta.
func TestRebuildMatchesIncremental(t *testing.T) {
	const nv = 16
	m, err := NewMiner(Config{NumVertices: nv})
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)
	if _, err := m.RegisterQuery(p); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var prev uint64
	for b := 0; b < 5; b++ {
		batch := Batch{Add: randRaw(rng, nv, 4)}
		if live := m.LiveEdgeSets(); len(live) > 2 {
			batch.Retire = live[:2]
		}
		res, err := m.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		rebuilt := oracle(t, nv, m.LiveEdgeSets(), p, engine.Options{Workers: 1})
		d := res.Deltas[0]
		if d.Total != rebuilt || prev+d.Added-d.Retired != rebuilt {
			t.Fatalf("batch %d: incremental %+v on top of %d, rebuild counts %d", b, d, prev, rebuilt)
		}
		prev = rebuilt
	}
}

// forceCompaction lowers m's threshold so that almost any garbage compacts.
func forceCompaction(m *Miner) { m.compactMin, m.compactFraction = 1, 0.01 }

// forbidCompaction raises m's threshold beyond any count of retired edges
// or moved entries.
func forbidCompaction(m *Miner) { m.compactMin = math.MaxInt }

// TestCompaction: aggressive thresholds trigger compaction; counts are
// unaffected and garbage is reclaimed.
func TestCompaction(t *testing.T) {
	m, err := NewMiner(Config{NumVertices: 14})
	if err != nil {
		t.Fatal(err)
	}
	forceCompaction(m)
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)
	if _, err := m.RegisterQuery(p); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	sawCompaction := false
	for b := 0; b < 6; b++ {
		batch := Batch{Add: randRaw(rng, 14, 4)}
		if live := m.LiveEdgeSets(); len(live) > 1 {
			batch.Retire = live[:1]
		}
		res, err := m.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		sawCompaction = sawCompaction || res.Compacted
		want := oracle(t, 14, m.LiveEdgeSets(), p, engine.Options{})
		if res.Deltas[0].Total != want {
			t.Fatalf("batch %d: total %d, oracle %d", b, res.Deltas[0].Total, want)
		}
	}
	if !sawCompaction {
		t.Fatal("no compaction triggered despite aggressive thresholds")
	}
	// After retiring and compacting, physical garbage must have been bounded:
	// one more batch with a retire, then verify RetiredEdges resets on the
	// following compaction.
	live := m.LiveEdgeSets()
	if _, err := m.ApplyBatch(Batch{Retire: live[:1]}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyBatch(Batch{Add: [][]uint32{{0, 13}}}); err != nil {
		t.Fatal(err)
	}
	if m.RetiredEdges() != 0 {
		t.Fatalf("garbage %d after compaction", m.RetiredEdges())
	}
}

// TestRegisterDedup: isomorphic patterns share one standing query.
func TestRegisterDedup(t *testing.T) {
	m, err := NewMiner(Config{NumVertices: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.RegisterQuery(pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if a.Existing {
		t.Fatal("first registration marked existing")
	}
	// Same chain shape under a different vertex labeling.
	b, err := m.RegisterQuery(pattern.MustNew([][]uint32{{5, 3}, {3, 9}}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Existing || b.ID != a.ID {
		t.Fatalf("isomorphic registration not deduped: %+v vs %+v", a, b)
	}
	c, err := m.RegisterQuery(pattern.MustNew([][]uint32{{0, 1, 2}, {2, 3}}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if c.Existing || c.ID == a.ID {
		t.Fatalf("distinct pattern deduped: %+v", c)
	}
	if len(m.Queries()) != 2 {
		t.Fatalf("%d queries", len(m.Queries()))
	}
}

// TestRegisterBaseline: a registration's baseline equals TotalCount on the
// live graph, both before retired garbage exists, when it is mined with the
// symmetry-broken plan, and with garbage masked out.
func TestRegisterBaseline(t *testing.T) {
	const nv = 14
	m, err := NewMiner(Config{NumVertices: nv, Engine: engine.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	forbidCompaction(m)
	rng := rand.New(rand.NewSource(3))
	if _, err := m.ApplyBatch(Batch{Add: randRaw(rng, nv, 24)}); err != nil {
		t.Fatal(err)
	}
	pats := testPatterns()
	check := func(p *pattern.Pattern, garbage bool) {
		t.Helper()
		if got := m.RetiredEdges() > 0; got != garbage {
			t.Fatalf("retired garbage present = %v, want %v", got, garbage)
		}
		info, err := m.RegisterQuery(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.TotalCount(p)
		if err != nil {
			t.Fatal(err)
		}
		if info.Total != want.Ordered || want.Ordered == 0 {
			t.Fatalf("%s (garbage %v): baseline %d, TotalCount %d", p, garbage, info.Total, want.Ordered)
		}
	}
	half := len(pats) / 2
	for _, p := range pats[:half] {
		check(p, false)
	}
	if _, err := m.ApplyBatch(Batch{Retire: m.LiveEdgeSets()[:6]}); err != nil {
		t.Fatal(err)
	}
	for _, p := range pats[half:] {
		check(p, true)
	}
}

// TestSeqDiscipline: sequenced batches replay idempotently and refuse gaps.
func TestSeqDiscipline(t *testing.T) {
	m, err := NewMiner(Config{NumVertices: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyBatch(Batch{Seq: 1, Add: [][]uint32{{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyBatch(Batch{Seq: 1, Add: [][]uint32{{0, 1}}}); !errors.Is(err, ErrStale) {
		t.Fatalf("replay: %v", err)
	}
	if m.Epoch() != 1 || m.LiveEdges() != 1 {
		t.Fatal("stale replay mutated state")
	}
	if _, err := m.ApplyBatch(Batch{Seq: 3, Add: [][]uint32{{1, 2}}}); !errors.Is(err, ErrGap) {
		t.Fatalf("gap: %v", err)
	}
	if _, err := m.ApplyBatch(Batch{Seq: 2, Add: [][]uint32{{1, 2}}}); err != nil {
		t.Fatal(err)
	}
}

// TestRetireReadd: retiring and re-adding a set in one batch counts the
// embedding churn on both sides while leaving the total unchanged.
func TestRetireReadd(t *testing.T) {
	m, err := NewMiner(Config{NumVertices: 6})
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)
	if _, err := m.RegisterQuery(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyBatch(Batch{Add: [][]uint32{{0, 1}, {1, 2}}}); err != nil {
		t.Fatal(err)
	}
	res, err := m.ApplyBatch(Batch{Add: [][]uint32{{0, 1}}, Retire: [][]uint32{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Deltas[0]
	if d.Added != 2 || d.Retired != 2 || d.Total != 2 {
		t.Fatalf("retire+readd delta: %+v", d)
	}
	if res.Added != 1 || res.Retired != 1 || m.LiveEdges() != 2 {
		t.Fatalf("retire+readd accounting: %+v live %d", res, m.LiveEdges())
	}
	// A plain re-add of a live edge is a refresh: zero delta.
	res, err = m.ApplyBatch(Batch{Add: [][]uint32{{1, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	d = res.Deltas[0]
	if res.Refreshed != 1 || d.Added != 0 || d.Retired != 0 || d.Total != 2 {
		t.Fatalf("refresh: %+v delta %+v", res, d)
	}
}

// TestLatestDelta: the ad-hoc per-batch delta matches the standing query's
// pushed event.
func TestLatestDelta(t *testing.T) {
	m, err := NewMiner(Config{NumVertices: 10})
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)
	if _, err := m.RegisterQuery(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LatestDelta(p); err == nil {
		t.Fatal("LatestDelta before any batch should fail")
	}
	rng := rand.New(rand.NewSource(5))
	if _, err := m.ApplyBatch(Batch{Add: randRaw(rng, 10, 8)}); err != nil {
		t.Fatal(err)
	}
	live := m.LiveEdgeSets()
	res, err := m.ApplyBatch(Batch{Add: randRaw(rng, 10, 3), Retire: live[:1]})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.LatestDelta(p)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Deltas[0]
	if d.Added != want.Added || d.Retired != want.Retired {
		t.Fatalf("LatestDelta %+v vs pushed %+v", d, want)
	}
}

// TestEmptyStream: queries registered on an empty stream have zero
// baselines and count up from the first batch.
func TestEmptyStream(t *testing.T) {
	m, err := NewMiner(Config{NumVertices: 6})
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)
	info, err := m.RegisterQuery(p)
	if err != nil {
		t.Fatal(err)
	}
	if info.Total != 0 {
		t.Fatalf("empty baseline %d", info.Total)
	}
	tc, err := m.TotalCount(p)
	if err != nil || tc.Ordered != 0 {
		t.Fatalf("empty TotalCount %v %v", tc.Ordered, err)
	}
	res, err := m.ApplyBatch(Batch{Add: [][]uint32{{0, 1}, {1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deltas[0].Total != 2 {
		t.Fatalf("total %d", res.Deltas[0].Total)
	}
	// Retiring everything empties the live graph again.
	if _, err := m.ApplyBatch(Batch{Retire: [][]uint32{{0, 1}, {1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if m.LiveEdges() != 0 {
		t.Fatalf("live %d", m.LiveEdges())
	}
	tc, err = m.TotalCount(p)
	if err != nil || tc.Ordered != 0 {
		t.Fatalf("emptied TotalCount %v %v", tc.Ordered, err)
	}
}

// TestChaosStreamConcurrentReaders: while 60 batches are applied — adds,
// explicit retires and window expiry, so the store grows in place, moves
// segments and is compacted — two goroutines call TotalCount in a loop.
// TotalCount mines the store it took outside the miner's lock, while the
// next batches append to the arenas that store shares with its successors
// or lay the store out afresh. Every count must equal a from-scratch mine of
// the live edges of an epoch the call overlapped, and some call must overlap
// a compacting batch; run under -race (make chaos), the reads and the
// appends must not touch the same memory.
func TestChaosStreamConcurrentReaders(t *testing.T) {
	const nv, batches = 60, 60
	opts := engine.Options{Workers: 2}
	m, err := NewMiner(Config{NumVertices: nv, Window: 10, Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	pats := testPatterns()
	type observed struct {
		lo, hi uint64 // the epochs before and after the call
		pat    int
		got    uint64
	}
	var mu sync.Mutex
	want := [][]uint64{make([]uint64, len(pats))} // want[t][i]: pattern i after epoch t
	var seen []observed
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := m.Epoch()
				res, err := m.TotalCount(pats[i%len(pats)])
				hi := m.Epoch()
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				seen = append(seen, observed{lo, hi, i % len(pats), res.Ordered})
				mu.Unlock()
			}
		}()
	}
	rng := rand.New(rand.NewSource(61))
	var compacted []uint64 // the epochs of the batches that compacted
	for b := 1; b <= batches; b++ {
		batch := Batch{Add: randRaw(rng, nv, 6+rng.Intn(8))}
		if b%3 == 0 {
			live := m.LiveEdgeSets()
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			batch.Retire = live[:min(len(live), 1+rng.Intn(4))]
		}
		res, err := m.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if res.Compacted {
			compacted = append(compacted, res.Epoch)
		}
		sets := m.LiveEdgeSets()
		counts := make([]uint64, len(pats))
		for i, p := range pats {
			counts[i] = oracle(t, nv, sets, p, opts)
		}
		mu.Lock()
		want = append(want, counts)
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	if len(seen) < batches {
		t.Fatalf("only %d concurrent counts over %d batches", len(seen), batches)
	}
	overlapped := 0
	for _, o := range seen {
		for _, c := range compacted {
			if o.lo < c && c <= o.hi {
				overlapped++
			}
		}
		ok := false
		for ep := o.lo; ep <= o.hi && !ok; ep++ {
			ok = want[ep][o.pat] == o.got
		}
		if !ok {
			t.Fatalf("pattern %d counted %d between epochs %d and %d, want one of %v", o.pat, o.got, o.lo, o.hi, want[o.lo:o.hi+1])
		}
	}
	t.Logf("%d compacting batches %v, overlapped by %d counts", len(compacted), compacted, overlapped)
	if overlapped == 0 {
		t.Fatalf("no count overlapped a compacting batch (compacted at epochs %v)", compacted)
	}
}
