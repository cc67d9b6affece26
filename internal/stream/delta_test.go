package stream

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ohminer/internal/engine"
	"ohminer/internal/pattern"
)

// asymmetricPatterns are mixed-degree patterns on whose anchor plans the
// matching-order position and the original hyperedge index of a hyperedge
// fall on different sides of the anchor (checkAnchorOrders) — where a filter
// deciding by position instead of by original index would miscount.
func asymmetricPatterns() []*pattern.Pattern {
	return []*pattern.Pattern{
		pattern.MustNew([][]uint32{{0, 1, 2}, {2, 3}, {3, 4}}, nil),
		pattern.MustNew([][]uint32{{0, 1}, {1, 2, 3}, {3, 4}, {4, 0}}, nil),
		pattern.MustNew([][]uint32{{0, 1}, {0, 2, 3}, {0, 4}, {0, 5, 6}}, nil), // 4-star of pairs and triples
	}
}

// checkAnchorOrders checks the anchor plans m compiled for its standing
// queries: plan a starts at hyperedge a, and for every query some anchor a
// and position pos fall on different sides of a, pos < a against Order[pos] <
// a, so that a filter deciding by position instead of by original index would
// miscount on them. Position 0 of any anchor a > 0 is such a place.
func checkAnchorOrders(t *testing.T, m *Miner) {
	t.Helper()
	for _, q := range m.queries {
		if q.anchorPlans == nil {
			t.Fatalf("%s: no anchor plans compiled", q.lit)
		}
		differ := false
		for a, plan := range q.anchorPlans {
			if plan.Order[0] != a {
				t.Fatalf("%s: the plan anchored at %d has order %v", q.lit, a, plan.Order)
			}
			for pos, orig := range plan.Order {
				differ = differ || (pos < a) != (orig < a)
			}
		}
		if !differ {
			t.Fatalf("%s: every anchor plan keeps each hyperedge's position on the side of the anchor its index is on", q.lit)
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
// after every batch on patterns whose anchor plans put hyperedges at positions
// that differ from their indices (checkAnchorOrders), over add-only, add+retire, READD coinciding with window expiry
// and the first batch after a compaction; LatestDelta for a pattern that is
// not registered agrees with the difference of two from-scratch mines.
func TestDeltaExactWhereOrdersDiffer(t *testing.T) {
	const nv = 16
	opts := engine.Options{Workers: 2}
	pats := asymmetricPatterns()
	adhoc := pattern.MustNew([][]uint32{{0, 1, 2}, {2, 3}, {2, 4}}, nil)

	scenarios := []struct {
		name    string
		cfg     Config
		retires bool
	}{
		{"addonly", Config{}, false},
		{"retire", Config{CompactFraction: -1}, true},
		{"window+readd", Config{Window: 3, CompactFraction: -1}, true},
		{"compaction", Config{CompactFraction: 0.01, CompactMin: 1}, true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			sc.cfg.NumVertices, sc.cfg.Engine = nv, opts
			m, err := NewMiner(sc.cfg)
			if err != nil {
				t.Fatal(err)
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
			if sc.cfg.CompactMin == 1 && !sawCompaction {
				t.Error("no compaction happened")
			}
			if sc.cfg.Window > 0 && !sawReadd {
				t.Error("no READD coincided with a window expiry")
			}
		})
	}
}

// TestDeltaInvariantUnderRelabelling: the anchor is the first changed
// hyperedge in the order the pattern was written, so writing the hyperedges
// in another order moves embeddings between anchors — and must move no
// delta.
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

// countingWriter counts the Write calls that reach it.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestSnapshotOneWrite: a snapshot reaches its destination — the file, for
// durable.FileSink — as one Write.
func TestSnapshotOneWrite(t *testing.T) {
	snap := buildStream(t, Config{}, 5, 4).SnapshotState()
	var w countingWriter
	if err := snap.Encode(&w); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("Encode issued %d writes", w.writes)
	}
	if b, _ := snap.Marshal(); !bytes.Equal(b, w.Bytes()) || len(b) != snap.encodedSize() {
		t.Fatalf("Encode wrote %d bytes, Marshal %d, encodedSize %d", w.Len(), len(b), snap.encodedSize())
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
