package stream

import (
	"math/rand"
	"testing"

	"ohminer/internal/engine"
)

// windowFeed generates a feed shaped like the stream_window benchmark's
// (which runs it over 1 800 vertices): over nv vertices, each batch adds 60
// pairs and triples of nearby vertices that are not live, and from batch
// window+2 on every second batch also retires 36 live hyperedges that are
// not about to expire, for window+batches batches in all. A Miner with
// Window = window expires the rest.
func windowFeed(seed int64, nv, window, batches int) []Batch {
	const adds, retires = 60, 36
	rng := rand.New(rand.NewSource(seed))
	// live maps a live hyperedge to the epoch it was added at; order keeps
	// the draws reproducible.
	live := map[string]int{}
	edges := map[string][]uint32{}
	var order []string
	feed := make([]Batch, 0, window+batches)
	for t := 1; t <= window+batches; t++ {
		b := Batch{Seq: uint64(t)}
		if t > window && (t-window)%2 == 0 {
			for len(b.Retire) < retires {
				i := rng.Intn(len(order))
				k := order[i]
				if live[k] <= t-window+1 {
					continue
				}
				b.Retire = append(b.Retire, edges[k])
				delete(live, k)
				order[i] = order[len(order)-1]
				order = order[:len(order)-1]
			}
		}
		for len(b.Add) < adds {
			var e []uint32
			if v := uint32(rng.Intn(nv - 16)); rng.Intn(4) > 0 {
				e = []uint32{v, v + 1 + uint32(rng.Intn(6))}
			} else {
				a := v + 1 + uint32(rng.Intn(4))
				e = []uint32{v, a, a + 1 + uint32(rng.Intn(4))}
			}
			k := edgeKey(e)
			if _, ok := live[k]; ok {
				continue
			}
			live[k], edges[k] = t, e
			order = append(order, k)
			b.Add = append(b.Add, e)
		}
		if t > window {
			kept := order[:0]
			for _, k := range order {
				if live[k] <= t-window {
					delete(live, k)
					continue
				}
				kept = append(kept, k)
			}
			order = kept
		}
		feed = append(feed, b)
	}
	return feed
}

// movedEntries sums what the compaction rule reads: the entries growth in
// place left behind in m's adjacency, group and vertex-list arenas, and the
// live ones.
func movedEntries(m *Miner) (moved, live int) {
	if m.store == nil {
		return 0, 0
	}
	sm, sl := m.store.Moved()
	hm, hl := m.h.Moved()
	return sm + hm, sl + hl
}

// TestEveryLayoutReported: on the stream_window feed the store is laid out
// afresh only by a compaction the batch reports. The moved entries of the
// store's arenas never fall on a batch that does not report Compacted, and
// at most 13 batches of a run compact: the 12 that retired edges call for
// and one that the moved entries of the 40 seeding batches call for.
func TestEveryLayoutReported(t *testing.T) {
	const window, batches = 40, 150
	for seed := int64(1); seed <= 3; seed++ {
		m, err := NewMiner(Config{NumVertices: 1800, Window: window})
		if err != nil {
			t.Fatal(err)
		}
		prev, compactions := 0, 0
		for i, b := range windowFeed(seed, 1800, window, batches) {
			res, err := m.ApplyBatch(b)
			if err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, i+1, err)
			}
			moved, _ := movedEntries(m)
			if moved < prev && !res.Compacted {
				t.Fatalf("seed %d batch %d: the store was laid out afresh (%d moved entries, %d before) without reporting Compacted", seed, i+1, moved, prev)
			}
			if res.Compacted {
				compactions++
			}
			prev = moved
		}
		t.Logf("seed %d: %d of %d batches compacted", seed, compactions, window+batches)
		if compactions > 13 {
			t.Fatalf("seed %d: %d compactions in %d batches, want at most 13", seed, compactions, window+batches)
		}
	}
}

// TestInsertOnlyStreamCompacts: small insert-only batches rewrite the same
// segments and vertex lists again and again, so growth in place alone piles
// up moved entries, with no retired edge to call a compaction. The Miner
// compacts exactly on the batches that begin past the moved-entry bound, it
// reports each, and every standing total matches a from-scratch mine.
func TestInsertOnlyStreamCompacts(t *testing.T) {
	const nv = 64
	opts := engine.Options{Workers: 1}
	m, err := NewMiner(Config{NumVertices: nv, Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	pats := testPatterns()
	for _, p := range pats {
		if _, err := m.RegisterQuery(p); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	over, compactions := false, 0
	for b := 1; b <= 120; b++ {
		res, err := m.ApplyBatch(Batch{Add: randRaw(rng, nv, 3)})
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if res.Compacted != over {
			t.Fatalf("batch %d: Compacted %v, but the arenas began it past the bound: %v", b, res.Compacted, over)
		}
		if res.Compacted {
			compactions++
		}
		if m.RetiredEdges() != 0 {
			t.Fatalf("batch %d: %d retired edges in an insert-only stream", b, m.RetiredEdges())
		}
		moved, live := movedEntries(m)
		over = moved > max(2*live, compactMoved)
		for i, p := range pats {
			want, err := m.TotalCount(p)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Deltas[i].Total; got != want.Ordered {
				t.Fatalf("batch %d, query %d: total %d, TotalCount %d", b, i, got, want.Ordered)
			}
		}
	}
	if compactions == 0 {
		t.Fatal("the moved entries never crossed the bound")
	}
	t.Logf("%d compactions in 120 batches", compactions)
}
