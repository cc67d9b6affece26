package engine

import (
	"math/rand"
	"testing"

	"ohminer/internal/bruteforce"
	"ohminer/internal/dal"
	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
	"ohminer/internal/pattern"
)

// TestCanonicalEmissionCount: on the default symmetry-broken plan the
// callback fires exactly Unique times, once per unordered embedding, and
// each emitted tuple is the lexicographically smallest of its automorphic
// reorderings.
func TestCanonicalEmissionCount(t *testing.T) {
	h := hypergraph.MustBuild(8, [][]uint32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
	}, nil)
	store := dal.Build(h)
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil) // 2 automorphisms
	var emitted [][]uint32
	res, err := Mine(store, p, Options{Workers: 1, OnEmbedding: func(c []uint32) {
		emitted = append(emitted, append([]uint32(nil), c...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ordered != 6 || res.Unique != 3 {
		t.Fatalf("ordered=%d unique=%d", res.Ordered, res.Unique)
	}
	if len(emitted) != int(res.Unique) {
		t.Fatalf("emitted %d canonical tuples, want %d", len(emitted), res.Unique)
	}
	perms := bruteforce.AutomorphismPerms(res.Plan.Pattern)
	for _, c := range emitted {
		if !lexSmallest(c, perms) {
			t.Fatalf("emitted %v, but an automorphic reordering is smaller", c)
		}
	}
	// No two emitted tuples may be automorphic images of each other: as
	// sets they must be distinct.
	seen := map[[3]uint32]bool{}
	for _, c := range emitted {
		key := [3]uint32{c[0], c[1], c[2]}
		// normalize by sorting
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if key[1] > key[2] {
			key[1], key[2] = key[2], key[1]
		}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if seen[key] {
			t.Fatalf("duplicate unordered embedding %v", key)
		}
		seen[key] = true
	}
}

// TestCanonicalEmissionRandom: on the default symmetry-broken plan the
// emission count equals Unique on random workloads with symmetric patterns,
// for both 1 and 3 workers.
func TestCanonicalEmissionRandom(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "c", NumVertices: 80, NumEdges: 250,
		Communities: 5, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 5, EdgeSizeMean: 3, Seed: 91})
	store := dal.Build(h)
	rng := rand.New(rand.NewSource(17))
	checkedSymmetric := false
	for trial := 0; trial < 20; trial++ {
		p, err := pattern.Sample(h, 2+rng.Intn(2), 2, 20, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p.Automorphisms() > 1 {
			checkedSymmetric = true
		}
		for _, workers := range []int{1, 3} {
			var emitted [][]uint32
			res, err := Mine(store, p, Options{Workers: workers,
				OnEmbedding: func(c []uint32) { emitted = append(emitted, append([]uint32(nil), c...)) }})
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(emitted)) != res.Unique {
				t.Fatalf("trial %d workers=%d: emitted %d want %d (aut=%d, pattern %s)",
					trial, workers, len(emitted), res.Unique, res.Automorphisms, p)
			}
			perms := bruteforce.AutomorphismPerms(res.Plan.Pattern)
			for _, c := range emitted {
				if !lexSmallest(c, perms) {
					t.Fatalf("trial %d: emitted %v, but an automorphic reordering is smaller (pattern %s)", trial, c, p)
				}
			}
		}
	}
	if !checkedSymmetric {
		t.Log("warning: no symmetric pattern sampled; only identity automorphisms exercised")
	}
}

// lexSmallest reports whether the tuple c is the lexicographically smallest
// of its reorderings c∘perm over the automorphism permutations perms.
func lexSmallest(c []uint32, perms [][]int) bool {
	for _, perm := range perms {
		for i := range c {
			if pc := c[perm[i]]; pc != c[i] {
				if pc < c[i] {
					return false
				}
				break
			}
		}
	}
	return true
}

func TestAutomorphismPermsIdentityFirst(t *testing.T) {
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {0, 2}}, nil)
	perms := bruteforce.AutomorphismPerms(p)
	if len(perms) != 6 {
		t.Fatalf("triangle perms: %d", len(perms))
	}
	for i, v := range perms[0] {
		if i != v {
			t.Fatalf("identity not first: %v", perms[0])
		}
	}
}
