package pattern_test

import (
	"bufio"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ohminer/internal/bruteforce"
	"ohminer/internal/hypergraph"
	"ohminer/internal/pattern"
)

// restrictionsFromPerms is the stabilizer-chain rule the restrictions were
// first derived by, over the group as explicit permutations: at each level
// the first position p1 moved by the remaining subgroup anchors its orbit,
// every other orbit member q receives c[p1] < c[q], and the subgroup is cut
// to the stabilizer of p1 until only the identity remains.
func restrictionsFromPerms(m int, perms [][]int) [][]int {
	out := make([][]int, m)
	group := perms
	for len(group) > 1 {
		p1 := -1
	findMoved:
		for i := 0; i < m; i++ {
			for _, pm := range group {
				if pm[i] != i {
					p1 = i
					break findMoved
				}
			}
		}
		if p1 < 0 {
			break // duplicate identities; nothing left to break
		}
		inOrbit := make(map[int]bool, len(group))
		for _, pm := range group {
			inOrbit[pm[p1]] = true
		}
		for q := range inOrbit {
			if q != p1 {
				out[q] = append(out[q], p1)
			}
		}
		var stab [][]int
		for _, pm := range group {
			if pm[p1] == p1 {
				stab = append(stab, pm)
			}
		}
		group = stab
	}
	for t := range out {
		sort.Ints(out[t])
	}
	return out
}

// orbitsFromPerms returns each orbit's smallest member, ascending, with the
// orbit's size.
func orbitsFromPerms(m int, perms [][]int) (reps, sizes []int) {
	seen := make([]bool, m)
	for i := range seen {
		if seen[i] {
			continue
		}
		n := 0
		for _, perm := range perms {
			if j := perm[i]; !seen[j] {
				seen[j] = true
				n++
			}
		}
		reps, sizes = append(reps, i), append(sizes, n)
	}
	return reps, sizes
}

// checkSymmetry fails unless |Aut|, the restrictions and the orbits equal
// what the explicit group of bruteforce.AutomorphismPerms yields.
func checkSymmetry(t testing.TB, p *pattern.Pattern) {
	t.Helper()
	perms := bruteforce.AutomorphismPerms(p)
	if got := p.Automorphisms(); got != len(perms) {
		t.Fatalf("%q: |Aut| = %d, oracle %d", p, got, len(perms))
	}
	want := restrictionsFromPerms(p.NumEdges(), perms)
	for i, rs := range p.SymmetryRestrictions() {
		if !slices.Equal(rs, want[i]) {
			t.Fatalf("%q: restrictions %v, oracle %v", p, p.SymmetryRestrictions(), want)
		}
	}
	reps, sizes := p.Orbits()
	wantReps, wantSizes := orbitsFromPerms(p.NumEdges(), perms)
	if !slices.Equal(reps, wantReps) || !slices.Equal(sizes, wantSizes) {
		t.Fatalf("%q: orbits %v×%v, oracle %v×%v", p, reps, sizes, wantReps, wantSizes)
	}
}

// TestSymmetryMatchesOracle: on every enumerated shape of up to four
// hyperedges, with and without vertex and hyperedge labels, and on every
// pattern of the matching-order golden file, the symmetry search agrees
// with the explicit group.
func TestSymmetryMatchesOracle(t *testing.T) {
	for k := 1; k <= 4; k++ {
		maxVertices := 8
		if testing.Short() && k == 4 {
			maxVertices = 6
		}
		shapes, err := pattern.EnumerateShapes(k, 2, maxVertices)
		if err != nil {
			t.Fatal(err)
		}
		for n, s := range shapes {
			p, err := s.Pattern()
			if err != nil {
				t.Fatal(err)
			}
			checkSymmetry(t, p)
			// Labels that fall on the layout's vertex IDs and hyperedge
			// positions: some break the shape's symmetry, some keep it.
			labels := make([]uint32, p.NumVertices())
			for v := range labels {
				labels[v] = uint32((v + n) % 3 / 2)
			}
			edgeLabels := make([]uint32, k)
			for i := range edgeLabels {
				edgeLabels[i] = uint32((i + n) % 2)
			}
			for _, ls := range [][2][]uint32{{labels, nil}, {nil, edgeLabels}, {labels, edgeLabels}} {
				q, err := pattern.NewEdgeLabeled(p.Edges(), ls[0], ls[1])
				if err != nil {
					t.Fatal(err)
				}
				checkSymmetry(t, q)
			}
		}
	}

	f, err := os.Open("testdata/matching_orders.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		p, err := pattern.Parse(sc.Text())
		if err != nil {
			t.Fatalf("%q: %v", sc.Text(), err)
		}
		checkSymmetry(t, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// FuzzSymmetry: a pattern of up to seven hyperedges decoded from the input —
// beyond six the search admits only refined cells — gets the oracle's |Aut|,
// restrictions and orbits. The first byte picks K and whether vertex and
// hyperedge labels are present; each hyperedge is a 16-bit vertex mask;
// label bytes follow.
func FuzzSymmetry(f *testing.F) {
	f.Add([]byte{6, 0x03, 0x00, 0x05, 0x00, 0x09, 0x00, 0x11, 0x00, 0x21, 0x00, 0x41, 0x00, 0x81, 0x00})
	f.Add([]byte{20, 0x03, 0x00, 0x06, 0x00, 0x0c, 0x00, 0x18, 0x00, 0x30, 0x00, 0x60, 0x00, 0xc0, 0x00, 1, 0, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{17, 0x0f, 0x00, 0x33, 0x00, 0x3c, 0x00, 1, 2, 0, 1, 2, 0, 1, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%7
		flags := int(data[0]) / 7
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
		p, err := pattern.NewEdgeLabeled(edges, labels, edgeLabels)
		if err != nil {
			return
		}
		checkSymmetry(t, p)
	})
}

// TestRestrictionsFromPermsWide: the oracle's rule is defined over
// arbitrary position counts; a transposition of positions 35 and 36 in a
// 40-position group must yield exactly c35<c36 — the regression test for
// orbit bookkeeping that a 32-bit mask would have silently wrapped.
func TestRestrictionsFromPermsWide(t *testing.T) {
	const m = 40
	id := make([]int, m)
	swap := make([]int, m)
	for i := range id {
		id[i] = i
		swap[i] = i
	}
	swap[35], swap[36] = 36, 35
	got := restrictionsFromPerms(m, [][]int{id, swap})
	for i, rs := range got {
		switch i {
		case 36:
			if !reflect.DeepEqual(rs, []int{35}) {
				t.Errorf("position 36: restrictions %v, want [35]", rs)
			}
		default:
			if len(rs) != 0 {
				t.Errorf("position %d: unexpected restrictions %v", i, rs)
			}
		}
	}

	// A 3-cycle over {10, 20, 30} plus its square: one orbit anchored at 10,
	// both other members restricted against it, then the stabilizer of 10 is
	// trivial.
	rot := make([]int, m)
	rot2 := make([]int, m)
	copy(rot, id)
	copy(rot2, id)
	rot[10], rot[20], rot[30] = 20, 30, 10
	rot2[10], rot2[20], rot2[30] = 30, 10, 20
	got = restrictionsFromPerms(m, [][]int{id, rot, rot2})
	if !reflect.DeepEqual(got[20], []int{10}) || !reflect.DeepEqual(got[30], []int{10}) {
		t.Errorf("3-cycle: got %v/%v at 20/30, want [10]/[10]", got[20], got[30])
	}
}

// TestEnumerateShapesPairwiseNonIsomorphic: no two enumerated shapes realize
// isomorphic patterns — no order of one's hyperedges embeds it onto all of
// the other's.
func TestEnumerateShapesPairwiseNonIsomorphic(t *testing.T) {
	shapes, err := pattern.EnumerateShapes(3, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) < 5 {
		t.Fatalf("K=3 maxRegion=1: only %d shapes", len(shapes))
	}
	pats := make([]*pattern.Pattern, len(shapes))
	for i, s := range shapes {
		if pats[i], err = s.Pattern(); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	for i := range pats {
		for j := i + 1; j < len(pats); j++ {
			h := hypergraph.MustBuild(pats[j].NumVertices(), pats[j].Edges(), nil)
			if bruteforce.Count(h, pats[i]) > 0 {
				t.Fatalf("shapes %s and %s realize isomorphic patterns", shapes[i], shapes[j])
			}
		}
	}
}
