package pattern

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ohminer/internal/gen"
)

// exhaustiveMaxEdges bounds the exhaustive oracle, which renders all K!
// hyperedge orders.
const exhaustiveMaxEdges = 6

// canonForm is a canonical result laid out for comparison: the key and the
// realized representative (edges, vertex labels, hyperedge labels).
type canonForm struct {
	key        string
	edges      [][]uint32
	labels     []uint32
	edgeLabels []uint32
}

// exhaustiveCanon is the oracle for canonSearch: every hyperedge order is
// rendered in full and the smallest rendering wins. It takes the raw
// hyperedges, so disconnected and duplicate-edge inputs can be checked too.
func exhaustiveCanon(edges [][]uint32, numVertices int, labels, edgeLabels []uint32) canonForm {
	k := len(edges)
	vmask := make([]uint32, numVertices)
	for i, e := range edges {
		for _, v := range e {
			vmask[v] |= 1 << uint(i)
		}
	}
	edgeLabel := func(i int) uint32 {
		if edgeLabels == nil {
			return 0
		}
		return edgeLabels[i]
	}
	permuted := func(v int, q []int) uint32 {
		pm := uint32(0)
		for i := 0; i < k; i++ {
			if vmask[v]&(1<<uint(q[i])) != 0 {
				pm |= 1 << uint(i)
			}
		}
		return pm
	}
	label := func(v int) uint32 {
		if labels == nil {
			return 0
		}
		return labels[v]
	}

	n := 1 << k
	var best, render []byte
	var bestPerm []int
	regionLabels := make([][]uint32, n)
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	var permute func(pos int)
	permute = func(pos int) {
		if pos < k {
			for i := pos; i < k; i++ {
				perm[pos], perm[i] = perm[i], perm[pos]
				permute(pos + 1)
				perm[pos], perm[i] = perm[i], perm[pos]
			}
			return
		}
		for mask := range regionLabels {
			regionLabels[mask] = regionLabels[mask][:0]
		}
		for v := 0; v < numVertices; v++ {
			if vmask[v] != 0 {
				pm := permuted(v, perm)
				regionLabels[pm] = append(regionLabels[pm], label(v))
			}
		}
		render = render[:0]
		for mask := 1; mask < n; mask++ {
			ls := regionLabels[mask]
			sort.Slice(ls, func(a, b int) bool { return ls[a] < ls[b] })
			render = binary.BigEndian.AppendUint32(render, uint32(len(ls)))
			if labels != nil {
				for _, l := range ls {
					render = binary.BigEndian.AppendUint32(render, l)
				}
			}
		}
		for i := 0; i < k; i++ {
			render = binary.BigEndian.AppendUint32(render, edgeLabel(perm[i]))
		}
		if best == nil || bytes.Compare(render, best) < 0 {
			best = append(best[:0], render...)
			bestPerm = append(bestPerm[:0], perm...)
		}
	}
	permute(0)

	type canonVertex struct{ mask, label uint32 }
	var verts []canonVertex
	for v := 0; v < numVertices; v++ {
		if vmask[v] != 0 {
			verts = append(verts, canonVertex{permuted(v, bestPerm), label(v)})
		}
	}
	sort.Slice(verts, func(a, b int) bool {
		if verts[a].mask != verts[b].mask {
			return verts[a].mask < verts[b].mask
		}
		return verts[a].label < verts[b].label
	})
	out := canonForm{edges: make([][]uint32, k)}
	if labels != nil {
		out.labels = make([]uint32, len(verts))
	}
	for id, cv := range verts {
		if labels != nil {
			out.labels[id] = cv.label
		}
		for i := 0; i < k; i++ {
			if cv.mask&(1<<uint(i)) != 0 {
				out.edges[i] = append(out.edges[i], uint32(id))
			}
		}
	}
	if edgeLabels != nil {
		out.edgeLabels = make([]uint32, k)
		for i := range out.edgeLabels {
			out.edgeLabels[i] = edgeLabels[bestPerm[i]]
		}
	}
	key := binary.BigEndian.AppendUint32(nil, uint32(k))
	flags := uint32(0)
	if labels != nil {
		flags |= 1
	}
	if edgeLabels != nil {
		flags |= 2
	}
	key = binary.BigEndian.AppendUint32(key, flags)
	out.key = string(append(key, best...))
	return out
}

// searchCanon runs the canonical search on raw hyperedges without the Pattern
// constructor's checks, so inputs no Pattern admits reach the search.
func searchCanon(t testing.TB, edges [][]uint32, numVertices int, labels, edgeLabels []uint32) canonForm {
	t.Helper()
	p := &Pattern{edges: edges, labels: labels, edgeLabels: edgeLabels, numVertices: numVertices}
	key, _ := CanonicalKey(p)
	out := canonForm{key: key}
	out.edges, out.labels, out.edgeLabels = newSearch(p).realize(p.canonPerm)
	return out
}

// checkAgainstOracle fails unless the search and the oracle agree byte for
// byte on the key and on the realized representative.
func checkAgainstOracle(t testing.TB, what string, edges [][]uint32, numVertices int, labels, edgeLabels []uint32) {
	t.Helper()
	want := exhaustiveCanon(edges, numVertices, labels, edgeLabels)
	got := searchCanon(t, edges, numVertices, labels, edgeLabels)
	if got.key != want.key {
		t.Fatalf("%s: key %x, oracle %x", what, got.key, want.key)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: form %+v, oracle %+v", what, got, want)
	}
}

// randomEdges draws k hyperedges of 1…5 vertices over nv IDs; an ID no
// hyperedge picks stays an isolated vertex.
func randomEdges(rng *rand.Rand, k, nv int) [][]uint32 {
	edges := make([][]uint32, k)
	for i := range edges {
		size := 1 + rng.Intn(5)
		seen := map[uint32]bool{}
		for len(edges[i]) < size && len(seen) < nv {
			v := uint32(rng.Intn(nv))
			if !seen[v] {
				seen[v] = true
				edges[i] = append(edges[i], v)
			}
		}
		sort.Slice(edges[i], func(a, b int) bool { return edges[i][a] < edges[i][b] })
	}
	return edges
}

func randomLabels(rng *rand.Rand, n, alphabet int) []uint32 {
	ls := make([]uint32, n)
	for i := range ls {
		ls[i] = uint32(rng.Intn(alphabet))
	}
	return ls
}

// scramble writes p another way: hyperedges in a random order and vertex IDs
// renamed by a random permutation, labels carried along.
func scramble(t testing.TB, p *Pattern, rng *rand.Rand) *Pattern {
	t.Helper()
	order := rng.Perm(p.NumEdges())
	rename := rng.Perm(p.NumVertices())
	edges := make([][]uint32, len(order))
	var edgeLabels []uint32
	if p.EdgeLabeled() {
		edgeLabels = make([]uint32, len(order))
	}
	nv := 0
	for i, o := range order {
		for _, v := range p.Edge(o) {
			edges[i] = append(edges[i], uint32(rename[v]))
			nv = max(nv, rename[v]+1)
		}
		if edgeLabels != nil {
			edgeLabels[i] = p.EdgeLabel(o)
		}
	}
	var labels []uint32
	if p.Labeled() {
		// An isolated ID renamed past every referenced one drops off the end.
		labels = make([]uint32, nv)
		for v, r := range rename {
			if r < nv {
				labels[r] = p.Label(uint32(v))
			}
		}
	}
	q, err := NewEdgeLabeled(edges, labels, edgeLabels)
	if err != nil {
		t.Fatalf("scramble of %q: %v", p, err)
	}
	return q
}

// checkPattern checks a constructible pattern and one scrambled copy: both
// get the oracle's key and canonical pattern through the public entry points.
func checkPattern(t testing.TB, p *Pattern, rng *rand.Rand) {
	t.Helper()
	want := exhaustiveCanon(p.edges, p.numVertices, p.labels, p.edgeLabels)
	wantPat, err := NewEdgeLabeled(want.edges, want.labels, want.edgeLabels)
	if err != nil {
		t.Fatalf("%q: oracle form: %v", p, err)
	}
	for _, q := range []*Pattern{p, scramble(t, p, rng)} {
		key, ok := CanonicalKey(q)
		if !ok || key != want.key {
			t.Fatalf("%q: key %x (ok=%v), oracle %x", q, key, ok, want.key)
		}
		cp, ok := Canonical(q)
		if !ok || !reflect.DeepEqual(cp, wantPat) {
			t.Fatalf("%q: canonical %q, oracle %q", q, cp, wantPat)
		}
	}
}

// TestCanonicalMatchesExhaustive: the branch-and-bound search returns the
// exhaustive search's key and representative byte for byte — on every
// enumerated shape, on random vertex- and hyperedge-labelled patterns with
// isolated vertex IDs, and on inputs where every order ties, so nothing is
// cut and the hyperedge labels alone decide.
func TestCanonicalMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	small := testing.Short() || raceEnabled
	for k := 1; k <= 4; k++ {
		maxVertices := 9
		if small && k == 4 {
			maxVertices = 6
		}
		shapes, err := EnumerateShapes(k, 2, maxVertices)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range shapes {
			p, err := s.Pattern()
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, s.Key(), p.edges, p.numVertices, nil, nil)
			if k <= 3 {
				checkPattern(t, p, rng)
			}
		}
	}

	trials := 3000
	if small {
		trials = 300
	}
	for trial, built := 0, 0; built < trials; trial++ {
		k := 1 + trial%exhaustiveMaxEdges
		nv := 2 + rng.Intn(11)
		edges := randomEdges(rng, k, nv)
		var labels, edgeLabels []uint32
		if trial%3 == 1 {
			labels = randomLabels(rng, nv, 3)
		}
		if trial%4 == 2 {
			edgeLabels = randomLabels(rng, k, 3)
		}
		p, err := NewEdgeLabeled(edges, labels, edgeLabels)
		if err != nil {
			// Disconnected or duplicate: no Pattern, but the search still
			// owes the oracle's answer.
			checkAgainstOracle(t, fmt.Sprint(edges), edges, nv, labels, edgeLabels)
			continue
		}
		built++
		checkPattern(t, p, rng)
	}

	for k := 1; k <= exhaustiveMaxEdges; k++ {
		disjoint := make([][]uint32, k)
		sunflower := make([][]uint32, k)
		copies := make([][]uint32, k)
		for i := 0; i < k; i++ {
			disjoint[i] = []uint32{uint32(2 * i), uint32(2*i + 1)}
			sunflower[i] = []uint32{0, 1, uint32(2 + i)}
			copies[i] = []uint32{0, 1, 2}
		}
		checkAgainstOracle(t, fmt.Sprintf("%d disjoint", k), disjoint, 2*k, nil, nil)
		checkAgainstOracle(t, fmt.Sprintf("%d-petal sunflower", k), sunflower, 2+k, nil, nil)
		checkAgainstOracle(t, fmt.Sprintf("%d-petal labelled sunflower", k), sunflower, 2+k,
			randomLabels(rng, 2+k, 2), randomLabels(rng, k, 2))
		checkAgainstOracle(t, fmt.Sprintf("%d labelled copies", k), copies, 3, nil, randomLabels(rng, k, k))
	}
}

// FuzzCanonicalKey: a pattern decoded from the input and a copy with its
// hyperedges permuted and its vertices renamed get the same key and the same
// canonical pattern, both equal to the exhaustive oracle's. The first byte
// picks K (1…6) and whether vertex and hyperedge labels are present; each
// hyperedge is a 16-bit vertex mask; label bytes follow.
func FuzzCanonicalKey(f *testing.F) {
	f.Add([]byte{5, 0x07, 0x00, 0x1c, 0x00, 0x70, 0x00, 0xc1, 0x01, 0x00, 0x0e, 0x38, 0x00}, int64(1))
	f.Add([]byte{17, 0x0f, 0x00, 0x33, 0x00, 1, 2, 0, 1, 2, 0, 1, 2, 1, 0}, int64(2))
	f.Add([]byte{23, 0x03, 0x00, 0x05, 0x00, 0x09, 0x00, 0x11, 0x00, 0x21, 0x00, 0x41, 0x00}, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%exhaustiveMaxEdges
		flags := int(data[0]) / exhaustiveMaxEdges
		next := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		edges := make([][]uint32, k)
		nv := 0
		for i := range edges {
			mask := uint16(next(1+2*i)) | uint16(next(2+2*i))<<8
			for v := 0; v < 16; v++ {
				if mask&(1<<v) != 0 {
					edges[i] = append(edges[i], uint32(v))
					nv = max(nv, v+1)
				}
			}
		}
		pos := 1 + 2*k
		var labels, edgeLabels []uint32
		if flags&1 != 0 {
			labels = make([]uint32, nv)
			for v := range labels {
				labels[v] = uint32(next(pos) % 3)
				pos++
			}
		}
		if flags&2 != 0 {
			edgeLabels = make([]uint32, k)
			for i := range edgeLabels {
				edgeLabels[i] = uint32(next(pos) % 3)
				pos++
			}
		}
		p, err := NewEdgeLabeled(edges, labels, edgeLabels)
		if err != nil {
			return
		}
		checkPattern(t, p, rand.New(rand.NewSource(seed)))
	})
}

// fresh copies p without its memoized searches, so a benchmark iteration
// pays for them again.
func fresh(p *Pattern) *Pattern {
	return &Pattern{edges: p.edges, labels: p.labels, edgeLabels: p.edgeLabels, numVertices: p.numVertices}
}

// sunflower has n petals of two vertices each around a two-vertex core: all
// n! hyperedge orders tie.
func sunflower(n int) *Pattern {
	petals := make([][]uint32, n)
	for i := range petals {
		petals[i] = []uint32{0, 1, uint32(2 + 2*i), uint32(3 + 2*i)}
	}
	return MustNew(petals, nil)
}

// BenchmarkCanonicalKey times one key per request the way Session makes it,
// over patterns sampled from the CH preset in serve_mix's catalogue bands (K
// hyperedges, 2K…4K vertices), and over sunflowers of 6 to 14 petals, whose
// K! hyperedge orders all tie.
func BenchmarkCanonicalKey(b *testing.B) {
	ps, err := gen.PresetByTag("CH")
	if err != nil {
		b.Fatal(err)
	}
	h := gen.MustGenerate(ps.Config)
	run := func(b *testing.B, pats []*Pattern) {
		for i := 0; i < b.N; i++ {
			if _, ok := CanonicalKey(fresh(pats[i%len(pats)])); !ok {
				b.Fatal("refused")
			}
		}
	}
	for k := 2; k <= 6; k++ {
		rng := rand.New(rand.NewSource(int64(k)))
		var pats []*Pattern
		for len(pats) < 64 {
			p, err := Sample(h, k, 2*k, 4*k, rng)
			if err != nil {
				b.Fatal(err)
			}
			pats = append(pats, p)
		}
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) { run(b, pats) })
	}
	for k := 6; k <= 14; k++ {
		b.Run(fmt.Sprintf("K=%d/sunflower", k), func(b *testing.B) { run(b, []*Pattern{sunflower(k)}) })
	}
}

// BenchmarkSymmetry times the automorphism search and what is read off it —
// |Aut|, the restrictions and the orbits — on sunflowers of 6 to 14 petals.
func BenchmarkSymmetry(b *testing.B) {
	for k := 6; k <= 14; k++ {
		p := sunflower(k)
		b.Run(fmt.Sprintf("K=%d/sunflower", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := fresh(p)
				q.Automorphisms()
				q.SymmetryRestrictions()
				q.Orbits()
			}
		})
	}
}
