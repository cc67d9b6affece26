package stream

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ohminer/internal/bruteforce"
	"ohminer/internal/engine"
	"ohminer/internal/pattern"
)

// asymmetricPatterns are mixed-degree patterns with few automorphisms: the
// first has none, so each side of a delta makes one anchored run per
// hyperedge; the second's 4 hyperedges form 3 orbits, the third's 2.
// Their anchor plans bind hyperedges at positions other than their indices
// (checkAnchorOrders), and an embedding's smallest changed edge ID may sit
// at any of its positions.
func asymmetricPatterns() []*pattern.Pattern {
	return []*pattern.Pattern{
		pattern.MustNew([][]uint32{{0, 1, 2}, {2, 3}, {3, 4}}, nil),
		pattern.MustNew([][]uint32{{0, 1}, {1, 2, 3}, {3, 4}, {4, 0}}, nil),
		pattern.MustNew([][]uint32{{0, 1}, {0, 2, 3}, {0, 4}, {0, 5, 6}}, nil), // 4-star of pairs and triples
	}
}

// symmetricPatterns have automorphisms and, but for the 4-cycle, more than
// one orbit: the 3-path's ends and middle, and the bowtie's four spokes and
// two rims. Each orbit's run is weighted by its size.
func symmetricPatterns() []*pattern.Pattern {
	return []*pattern.Pattern{
		pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil),                         // 3-path
		pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, nil),                 // 4-cycle
		pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 0}}, nil), // bowtie
	}
}

// plantedSymmetric is a bowtie centred at vertex 5 and a 4-cycle on 10–13,
// of pairs the nearby generator may also draw.
var plantedSymmetric = [][]uint32{
	{5, 6}, {6, 7}, {5, 7}, {3, 5}, {3, 4}, {4, 5},
	{10, 11}, {11, 13}, {12, 13}, {10, 12},
}

// checkAnchorOrders checks the anchor plans m compiled for its standing
// queries against the partition by smallest changed edge ID: one plan per
// automorphism orbit, whose position 0 is the orbit's smallest member and
// whose weight is the orbit's size, the weights summing to the pattern's
// hyperedge count. Where a query has more than one orbit, some plan binds a
// hyperedge at a position other than its index: the filters read neither,
// so the runs must count alike whatever their matching orders are.
func checkAnchorOrders(t *testing.T, m *Miner) {
	t.Helper()
	for _, q := range m.queries {
		if q.anchorPlans == nil {
			t.Fatalf("%s: no anchor plans compiled", q.lit)
		}
		perms := bruteforce.AutomorphismPerms(q.p)
		covered := make([]bool, q.p.NumEdges())
		var sum uint64
		differ := false
		for _, ap := range q.anchorPlans {
			r := ap.plan.Order[0]
			orbit := map[int]bool{}
			for _, perm := range perms {
				orbit[perm[r]] = true
			}
			for j := range orbit {
				if j < r || covered[j] {
					t.Fatalf("%s: the plan anchored at %d is not its orbit's only plan at its smallest member (%d)", q.lit, r, j)
				}
				covered[j] = true
			}
			if ap.weight != uint64(len(orbit)) {
				t.Fatalf("%s: the plan anchored at %d weighs %d, its orbit holds %d", q.lit, r, ap.weight, len(orbit))
			}
			sum += ap.weight
			for pos, orig := range ap.plan.Order {
				differ = differ || pos != orig
			}
		}
		if sum != uint64(q.p.NumEdges()) {
			t.Fatalf("%s: weights sum to %d, want %d", q.lit, sum, q.p.NumEdges())
		}
		if len(q.anchorPlans) > 1 && !differ {
			t.Fatalf("%s: every anchor plan binds each hyperedge at its own index", q.lit)
		}
	}
}

// nearbyRaw draws n pairs and triples of nearby vertices, so that the
// asymmetric patterns have embeddings on a few dozen hyperedges.
func nearbyRaw(rng *rand.Rand, nv, n int) [][]uint32 {
	out := make([][]uint32, n)
	for i := range out {
		v := uint32(rng.Intn(nv - 4))
		out[i] = []uint32{v, v + 1 + uint32(rng.Intn(2))}
		if rng.Intn(2) == 0 {
			out[i] = append(out[i], v+3+uint32(rng.Intn(2)))
		}
	}
	return out
}

// checkTotals asserts that every standing query's streamed total equals a
// from-scratch mine of the live graph, and returns those totals.
func checkTotals(t *testing.T, m *Miner, nv int, pats []*pattern.Pattern, res *BatchResult, opts engine.Options) []uint64 {
	t.Helper()
	sets := m.LiveEdgeSets()
	want := make([]uint64, len(pats))
	for i, p := range pats {
		want[i] = oracle(t, nv, sets, p, opts)
		if d := res.Deltas[i]; d.Total != want[i] {
			t.Fatalf("epoch %d, %s: streamed total %d (added %d, retired %d), from scratch %d",
				res.Epoch, p, d.Total, d.Added, d.Retired, want[i])
		}
	}
	return want
}

// TestDeltaExactWhereOrdersDiffer: streamed totals equal a from-scratch mine
// after every batch on asymmetric patterns, whose anchor plans put
// hyperedges at positions that differ from their indices, and on symmetric
// ones with weighted orbit runs (checkAnchorOrders), over add-only,
// add+retire, READD coinciding with window expiry and the first batch after
// a compaction; LatestDelta for a pattern that is not registered agrees with
// the difference of two from-scratch mines.
func TestDeltaExactWhereOrdersDiffer(t *testing.T) {
	const nv = 16
	opts := engine.Options{Workers: 2}
	pats := append(asymmetricPatterns(), symmetricPatterns()...)
	adhoc := pattern.MustNew([][]uint32{{0, 1, 2}, {2, 3}, {2, 4}}, nil)

	scenarios := []struct {
		name    string
		cfg     Config
		compact func(*Miner) // nil keeps the default threshold
		retires bool
	}{
		{"addonly", Config{}, nil, false},
		{"retire", Config{}, forbidCompaction, true},
		{"window+readd", Config{Window: 3}, forbidCompaction, true},
		{"compaction", Config{}, forceCompaction, true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			sc.cfg.NumVertices, sc.cfg.Engine = nv, opts
			m, err := NewMiner(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sc.compact != nil {
				sc.compact(m)
			}
			rng := rand.New(rand.NewSource(31))
			if _, err := m.ApplyBatch(Batch{Add: nearbyRaw(rng, nv, 14)}); err != nil {
				t.Fatal(err)
			}
			for _, p := range pats {
				if _, err := m.RegisterQuery(p); err != nil {
					t.Fatal(err)
				}
			}
			prevAdhoc := oracle(t, nv, m.LiveEdgeSets(), adhoc, opts)
			nonzero := make([]bool, len(pats))
			var sawCompaction, sawReadd bool
			for b := 0; b < 8; b++ {
				batch := Batch{Add: nearbyRaw(rng, nv, 5)}
				if sc.retires {
					live := m.LiveEdgeSets()
					rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
					batch.Retire = live[:min(2, len(live))]
				}
				if b == 1 {
					// Nearby pairs rarely close a bowtie or a 4-cycle: add one
					// of each whole, so that one batch changes several edges of
					// one embedding.
					batch.Add = append(batch.Add, plantedSymmetric...)
				}
				if sc.cfg.Window > 0 {
					// Retire and re-add, in the batch they are due to expire
					// in, the edges that are: READD must win over EXPIRY.
					snap := m.SnapshotState()
					for _, e := range snap.Edges {
						if e.AddEpoch+sc.cfg.Window == snap.Epoch+1 && len(batch.Retire) < 4 {
							batch.Retire = append(batch.Retire, e.Verts)
							batch.Add = append(batch.Add, e.Verts)
							sawReadd = true
						}
					}
				}
				res, err := m.ApplyBatch(batch)
				if err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
				if b == 0 {
					checkAnchorOrders(t, m)
				}
				sawCompaction = sawCompaction || res.Compacted
				for i, n := range checkTotals(t, m, nv, pats, res, opts) {
					nonzero[i] = nonzero[i] || n > 0
				}
				d, err := m.LatestDelta(adhoc)
				if err != nil {
					t.Fatal(err)
				}
				now := oracle(t, nv, m.LiveEdgeSets(), adhoc, opts)
				if prevAdhoc+d.Added-d.Retired != now {
					t.Fatalf("batch %d: LatestDelta(%s) = +%d −%d, from scratch %d → %d", b, adhoc, d.Added, d.Retired, prevAdhoc, now)
				}
				prevAdhoc = now
			}
			for i, ok := range nonzero {
				if !ok {
					t.Errorf("%s never had an embedding: the scenario checks nothing for it", pats[i])
				}
			}
			if m.compactMin == 1 && !sawCompaction {
				t.Error("no compaction happened")
			}
			if m.compactMin == math.MaxInt && sawCompaction {
				t.Error("a compaction happened though forbidden")
			}
			if sc.cfg.Window > 0 && !sawReadd {
				t.Error("no READD coincided with a window expiry")
			}
		})
	}
}

// TestDeltaInvariantUnderRelabelling: the anchor is an embedding's smallest
// changed data-hyperedge ID, bound at position 0 of its orbit's plan, and the
// orbits and their plans follow the order the pattern was written in; writing
// the hyperedges in another order moves embeddings between orbit runs — and
// must move no delta.
func TestDeltaInvariantUnderRelabelling(t *testing.T) {
	const nv = 16
	m, err := NewMiner(Config{NumVertices: nv, Window: 4, Engine: engine.Options{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	pats := asymmetricPatterns()
	for b := 0; b < 6; b++ {
		batch := Batch{Add: nearbyRaw(rng, nv, 8)}
		if live := m.LiveEdgeSets(); b%2 == 1 {
			batch.Retire = live[:2]
		}
		if _, err := m.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		for _, p := range pats {
			want, err := m.LatestDelta(p)
			if err != nil {
				t.Fatal(err)
			}
			perm := rng.Perm(p.NumEdges())
			rp, err := p.Reorder(perm)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.LatestDelta(rp)
			if err != nil {
				t.Fatal(err)
			}
			if got.Added != want.Added || got.Retired != want.Retired {
				t.Fatalf("batch %d, %s relabelled %v: +%d −%d, want +%d −%d",
					b, p, perm, got.Added, got.Retired, want.Added, want.Retired)
			}
		}
	}
}

// TestDeltaOrbitRuns: a batch makes one anchored run per automorphism orbit
// on each side of its delta that changed an edge — one for the fully
// symmetric 2-chain, triangle and 3-star, m for a pattern of m hyperedges
// without automorphisms — and the orbit weights sum to m.
func TestDeltaOrbitRuns(t *testing.T) {
	const nv = 16
	cases := []struct {
		lit    string
		orbits int
	}{
		{"0 1; 1 2", 1},
		{"0 1; 1 2; 2 0", 1},
		{"0 1; 0 2; 0 3", 1},
		{"0 1; 1 2; 2 3", 2},
		{"0 1; 1 2 3; 3 4; 4 0", 3},
		{"0 1 2; 2 3; 3 4", 3},
		{"0 1 2; 2 3; 3 4 5; 5 6", 4},
	}
	for _, tc := range cases {
		p, err := pattern.Parse(tc.lit)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMiner(Config{NumVertices: nv, Engine: engine.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		if _, err := m.ApplyBatch(Batch{Add: nearbyRaw(rng, nv, 20)}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.RegisterQuery(p); err != nil {
			t.Fatal(err)
		}
		for _, step := range []struct {
			name  string
			batch func() Batch
			sides int
		}{
			{"add", func() Batch { return Batch{Add: nearbyRaw(rng, nv, 4)} }, 1},
			{"add+retire", func() Batch { return Batch{Add: nearbyRaw(rng, nv, 4), Retire: m.LiveEdgeSets()[:3]} }, 2},
			{"retire", func() Batch { return Batch{Retire: m.LiveEdgeSets()[:3]} }, 1},
		} {
			before := m.runs
			res, err := m.ApplyBatch(step.batch())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := m.runs-before, step.sides*tc.orbits; got != want {
				t.Errorf("%s, %s batch: %d anchored runs, want %d", tc.lit, step.name, got, want)
			}
			checkTotals(t, m, nv, []*pattern.Pattern{p}, res, engine.Options{Workers: 1})
		}
		var sum uint64
		for _, ap := range m.queries[1].anchorPlans {
			sum += ap.weight
		}
		if sum != uint64(p.NumEdges()) {
			t.Errorf("%s: orbit weights sum to %d, want %d", tc.lit, sum, p.NumEdges())
		}
		checkAnchorOrders(t, m)
	}
}

// streamLikeEdges draws n distinct pairs and triples of nearby vertices over
// [0, nv): the local density depends on n/nv only.
func streamLikeEdges(rng *rand.Rand, nv, n int) [][]uint32 {
	seen := map[string]bool{}
	var out [][]uint32
	for len(out) < n {
		v := uint32(rng.Intn(nv - 16))
		e := []uint32{v, v + 1 + uint32(rng.Intn(6))}
		if rng.Intn(4) == 0 {
			e = append(e, e[1]+1+uint32(rng.Intn(4)))
		}
		if k := edgeKey(e); !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

// TestDeltaWorkFollowsTheBatch: the same 60-edge batch applied to a window
// of |E| and to one of 4·|E| hyperedges of equal local density generates
// about the same number of candidates in its anchored runs — evaluation
// does not scan the live graph.
func TestDeltaWorkFollowsTheBatch(t *testing.T) {
	const edges, verts = 1200, 900
	batch := Batch{Add: streamLikeEdges(rand.New(rand.NewSource(2)), verts, 60)}
	candidates := func(scale int) uint64 {
		m, err := NewMiner(Config{NumVertices: scale * verts, Engine: engine.Options{Workers: 1, Instrument: true}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.ApplyBatch(Batch{Add: streamLikeEdges(rand.New(rand.NewSource(1)), scale*verts, scale*edges)}); err != nil {
			t.Fatal(err)
		}
		for _, lit := range []string{"0 1; 1 2", "0 1; 1 2; 2 0", "0 1; 0 2; 0 3", "0 1 2; 2 3; 3 4"} {
			p, err := pattern.Parse(lit)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.RegisterQuery(p); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.ApplyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Candidates == 0 {
			t.Fatal("no candidates counted")
		}
		return res.Stats.Candidates
	}
	small, large := candidates(1), candidates(4)
	t.Logf("Σ candidates of the batch's anchored runs: %d at |E|=%d, %d at |E|=%d", small, edges, large, 4*edges)
	if float64(large) > 1.25*float64(small) || float64(small) > 1.25*float64(large) {
		t.Fatalf("anchored-run candidates moved with |E|: %d vs %d", small, large)
	}
}

// TestSnapshotOneWrite: a snapshot reaches its base file as one Write —
// durable.WriteFile writes Marshal's slice whole — and Marshal sizes that
// slice exactly, so encoding never reallocates.
func TestSnapshotOneWrite(t *testing.T) {
	snap := buildStream(t, Config{}, 5, 4).SnapshotState()
	b, _ := snap.Marshal()
	if len(b) != snap.encodedSize() || cap(b) != len(b) {
		t.Fatalf("Marshal: %d bytes in a %d-byte slice, encodedSize %d", len(b), cap(b), snap.encodedSize())
	}
}

// TestSnapshotParentGolden: testdata/parent_pr13.ohmt was written by the
// reflection-based encoder of the commit before the one-write path
// (buildStream with Window 4, 9 batches, seed 17). It must load, and
// the same feed must still encode to the same bytes.
func TestSnapshotParentGolden(t *testing.T) {
	path := filepath.Join("testdata", "parent_pr13.ohmt")
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path, Config{})
	if err != nil {
		t.Fatalf("golden snapshot refused: %v", err)
	}
	m := buildStream(t, Config{Window: 4}, 9, 17)
	minersEquivalent(t, m, loaded)
	if b, _ := m.SnapshotState().Marshal(); !bytes.Equal(b, golden) {
		t.Fatalf("OHMT bytes changed: %d bytes now, %d in the golden file", len(b), len(golden))
	}
}
