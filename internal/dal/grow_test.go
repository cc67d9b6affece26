package dal

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ohminer/internal/hypergraph"
)

// accessorsAgree holds every public accessor of got to want's answer: the
// adjacency lists, every (degree, overlap) group and group run, every
// connection, the degree index, the vertex-set containers, the group sums,
// the container statistics and the saved bytes.
func accessorsAgree(t *testing.T, want, got *Store) {
	t.Helper()
	h := want.Hypergraph()
	m := uint32(h.NumEdges())
	if got.Hypergraph().NumEdges() != int(m) {
		t.Fatalf("hyperedges: want %d got %d", m, got.Hypergraph().NumEdges())
	}
	degs := want.Degrees()
	if !slices.Equal(degs, got.Degrees()) {
		t.Fatalf("Degrees: want %v got %v", degs, got.Degrees())
	}
	probe := append(slices.Clone(degs), 0, degs[len(degs)-1]+1)
	for _, d := range probe {
		if !slices.Equal(want.EdgesWithDegree(d), got.EdgesWithDegree(d)) || want.NumEdgesWithDegree(d) != got.NumEdgesWithDegree(d) {
			t.Fatalf("EdgesWithDegree(%d): want %v got %v", d, want.EdgesWithDegree(d), got.EdgesWithDegree(d))
		}
	}
	for e := uint32(0); e < m; e++ {
		if !slices.Equal(want.Adj(e), got.Adj(e)) || want.NumNeighbors(e) != got.NumNeighbors(e) {
			t.Fatalf("Adj(%d): want %v got %v", e, want.Adj(e), got.Adj(e))
		}
		ws, gs := want.EdgeVertexSet(e), got.EdgeVertexSet(e)
		if !slices.Equal(ws.Elems(), gs.Elems()) || ws.HasWindow() != gs.HasWindow() {
			t.Fatalf("EdgeVertexSet(%d) differs (window %v, %v)", e, ws.HasWindow(), gs.HasWindow())
		}
		for _, d := range probe {
			wl, gl := want.AdjSets(e, d, nil), got.AdjSets(e, d, nil)
			if len(wl) != len(gl) {
				t.Fatalf("AdjSets(%d, %d): want %d sets got %d", e, d, len(wl), len(gl))
			}
			for i := range wl {
				if !slices.Equal(wl[i].Elems(), gl[i].Elems()) || wl[i].HasWindow() != gl[i].HasWindow() {
					t.Fatalf("AdjSets(%d, %d)[%d] differs", e, d, i)
				}
			}
			for ov := 0; ov <= d+1; ov++ {
				w, g := want.AdjSet(e, d, ov), got.AdjSet(e, d, ov)
				if !slices.Equal(w.Elems(), g.Elems()) || w.HasWindow() != g.HasWindow() {
					t.Fatalf("AdjSet(%d, %d, %d): want %v got %v", e, d, ov, w.Elems(), g.Elems())
				}
			}
		}
		for o := uint32(0); o < m; o++ {
			if want.Connected(e, o) != got.Connected(e, o) {
				t.Fatalf("Connected(%d, %d): want %v", e, o, want.Connected(e, o))
			}
		}
	}
	for _, d := range degs {
		for _, n := range degs {
			for ov := -1; ov <= n; ov++ {
				if w, g := want.GroupSum(d, n, ov), got.GroupSum(d, n, ov); w != g {
					t.Fatalf("GroupSum(%d, %d, %d): want %d got %d", d, n, ov, w, g)
				}
			}
		}
	}
	if w, g := want.Containers(), got.Containers(); w != g {
		t.Fatalf("Containers: want %+v got %+v", w, g)
	}
	if !bytes.Equal(saved(t, want), saved(t, got)) {
		t.Fatal("saved bytes differ")
	}
}

func saved(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzBuildDelta grows a store batch by batch and holds it, after every
// batch, to Build on the same hypergraph through every accessor and the
// saved bytes; the store each batch grew from must save the same bytes
// before and after. Input bytes: the vertex universe, then ops — an edge (a
// byte n < 0x40, then 1+n%8 vertices), a fan (0x40 ≤ byte < 0x80, then a
// centre v and a count c: the pairs {v, x} for x < c, dense groups that earn
// bitmap windows) or a batch end (byte ≥ 0x80). The first batch is the base.
func FuzzBuildDelta(f *testing.F) {
	// A base of triangles, then a pair: a new, lower degree that shifts
	// every (degree, overlap) rank.
	f.Add([]byte{12, 2, 0, 1, 2, 2, 2, 3, 4, 2, 1, 2, 3, 0x80, 1, 1, 2, 0x80, 3, 0, 1, 2, 3})
	// A fan: twenty pairs on vertex 0, grown five at a time.
	f.Add([]byte{30, 0x40, 0, 5, 0x80, 0x40, 0, 10, 0x80, 0x40, 0, 15, 0x80, 0x40, 0, 24, 0x80, 1, 0, 29})
	// Many one-edge batches: the same segments rewritten again and again, so
	// the store grows on arenas that hold more garbage than live entries.
	f.Add([]byte{8, 1, 0, 1, 0x80, 1, 1, 2, 0x80, 1, 2, 3, 0x80, 1, 0, 2, 0x80, 1, 1, 3, 0x80, 2, 0, 1, 2,
		0x80, 1, 0, 3, 0x80, 2, 1, 2, 3, 0x80, 0, 4, 0x80, 1, 4, 5, 0x80, 1, 5, 6, 0x80, 1, 0, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nv := 2 + int(data[0]%30)
		seen := map[string]bool{}
		batches := [][][]uint32{nil}
		add := func(e []uint32) {
			slices.Sort(e)
			e = slices.Compact(e)
			if k := fmt.Sprint(e); !seen[k] && len(seen) < 120 {
				seen[k] = true
				batches[len(batches)-1] = append(batches[len(batches)-1], e)
			}
		}
		for data = data[1:]; len(data) > 0; {
			switch op := data[0]; {
			case op >= 0x80:
				batches = append(batches, nil)
				data = data[1:]
			case op >= 0x40 && len(data) >= 3:
				v, c := uint32(data[1])%uint32(nv), min(int(data[2]), nv)
				for x := 0; x < c; x++ {
					if uint32(x) != v {
						add([]uint32{v, uint32(x)})
					}
				}
				data = data[3:]
			default:
				n := min(1+int(op%8), len(data)-1)
				if n == 0 {
					data = nil
					break
				}
				e := make([]uint32, n)
				for i := range e {
					e[i] = uint32(data[1+i]) % uint32(nv)
				}
				add(e)
				data = data[1+n:]
			}
		}
		if len(batches[0]) == 0 {
			return
		}
		h, err := hypergraph.Build(nv, batches[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		st := Build(h)
		for _, batch := range batches[1:] {
			if len(batch) == 0 {
				continue
			}
			if h, err = hypergraph.Extend(h, batch); err != nil {
				t.Fatal(err)
			}
			prev, before := st, saved(t, st)
			st = BuildDelta(st, h)
			if !bytes.Equal(saved(t, prev), before) {
				t.Fatal("BuildDelta changed what its predecessor saves")
			}
			want := Build(h)
			accessorsAgree(t, want, st)
			storesEqual(t, want, st)
		}
	})
}

// growBatches returns a hypergraph of n edges and two further batches of k
// edges each, all from the stream benchmark's generator: pairs {v, v+1..6},
// a quarter of them triples, over 0.75·n vertices, so the local density
// does not depend on n.
func growBatches(t testing.TB, seed int64, n, k int) (*hypergraph.Hypergraph, [][]uint32, [][]uint32) {
	t.Helper()
	nv := n * 3 / 4
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	fresh := func(c int) [][]uint32 {
		var out [][]uint32
		for len(out) < c {
			v := uint32(rng.Intn(nv - 16))
			e := []uint32{v, v + 1 + uint32(rng.Intn(6))}
			if rng.Intn(4) == 0 {
				e = append(e, e[1]+1+uint32(rng.Intn(4)))
			}
			if key := fmt.Sprint(e); !seen[key] {
				seen[key] = true
				out = append(out, e)
			}
		}
		return out
	}
	h, err := hypergraph.Build(nv, fresh(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	return h, fresh(k), fresh(k)
}

// arenaWork counts the entries that growing table prev into next wrote or
// copied: the appended ones when next extends prev's array in place, every
// entry of next when it lies in another array.
func arenaWork[T any](prev, next []T) int {
	if len(prev) > 0 && len(next) >= len(prev) && &next[0] == &prev[0] {
		return len(next) - len(prev)
	}
	return len(next)
}

// TestBuildDeltaWorkFollowsTheBatch: the arena entries a 60-edge batch
// writes or copies — adjacency, groups and their windows — do not depend on
// the store's size: at 2 400 and at 38 400 hyperedges of the
// same local density they agree within 1.3×, summed over eight batches. The
// measured batch is the second one: the first moves the arenas of Build's
// exact-length store to larger ones, the second must fit in place. (Copying
// the tables, as a rebuild does, would move 16× more at the larger size.)
// hypergraph.TestExtendWorkFollowsTheBatch holds the vertex lists to the
// same bound.
func TestBuildDeltaWorkFollowsTheBatch(t *testing.T) {
	work := func(n int) (total int) {
		for seed := int64(1); seed <= 8; seed++ {
			h0, b1, b2 := growBatches(t, seed, n, 60)
			h1, err := hypergraph.Extend(h0, b1)
			if err != nil {
				t.Fatal(err)
			}
			prev := BuildDelta(Build(h0), h1)
			h2, err := hypergraph.Extend(h1, b2)
			if err != nil {
				t.Fatal(err)
			}
			s := BuildDelta(prev, h2)
			total += arenaWork(prev.adj, s.adj) + arenaWork(prev.grpDeg, s.grpDeg) +
				arenaWork(prev.grpOvl, s.grpOvl) + arenaWork(prev.grpStart, s.grpStart) + arenaWork(prev.winWords, s.winWords)
		}
		return total
	}
	small, large := work(2400), work(38400)
	t.Logf("arena entries written or copied by eight 60-edge batches: %d at |E| = 2400, %d at |E| = 38400", small, large)
	if r := float64(max(small, large)) / float64(min(small, large)); r > 1.3 {
		t.Fatalf("batch work differs %.2f× between |E| = 2400 and 38400 (%d vs %d)", r, small, large)
	}
}

// TestBuildDeltaForks: one store extended twice with different batches —
// the first BuildDelta appends into arenas it shares with prev, the second
// must copy them — gives two stores that each equal Build on their own
// hypergraph, the first one still after the second is built, and prev reads
// and saves as before. prev is itself a BuildDelta result, so its arenas
// have spare capacity to share.
func TestBuildDeltaForks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		nv := 8 + rng.Intn(24)
		edges := randomUniqueEdges(rng, nv, 20+rng.Intn(40))
		if trial%3 == 0 {
			// A fan of pairs, so groups carry windows.
			edges = edges[:10]
			for x := uint32(1); x < uint32(nv); x++ {
				if e := []uint32{0, x}; !slices.ContainsFunc(edges, func(o []uint32) bool { return slices.Equal(o, e) }) {
					edges = append(edges, e)
				}
			}
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		}
		n := len(edges)
		cut1, cut2, cut3 := n/4, n/2, 3*n/4
		h0 := hypergraph.MustBuild(nv, edges[:cut1], nil)
		prevH, err := hypergraph.Extend(h0, edges[cut1:cut2])
		if err != nil {
			t.Fatal(err)
		}
		prev := BuildDelta(Build(h0), prevH)
		before := saved(t, prev)

		hA, err := hypergraph.Extend(prevH, edges[cut2:cut3])
		if err != nil {
			t.Fatal(err)
		}
		sA := BuildDelta(prev, hA)
		hB, err := hypergraph.Extend(prevH, edges[cut3:])
		if err != nil {
			t.Fatal(err)
		}
		sB := BuildDelta(prev, hB)

		accessorsAgree(t, Build(hA), sA)
		storesEqual(t, Build(hA), sA)
		bEdges := append(slices.Clone(edges[:cut2]), edges[cut3:]...)
		wantB := Build(hypergraph.MustBuild(nv, bEdges, nil))
		accessorsAgree(t, wantB, sB)
		storesEqual(t, wantB, sB)
		if !bytes.Equal(saved(t, prev), before) {
			t.Fatalf("trial %d: prev saves other bytes after two forks", trial)
		}
		accessorsAgree(t, Build(prevH), prev)
	}
}
