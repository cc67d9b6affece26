package intset

import (
	"math/rand"
	"testing"
)

// setGens builds sets of deliberately different shapes so every kernel path
// (array, mixed probe, SWAR window, trimmed hubs, disjoint ranges) is hit.
var setGens = []struct {
	name string
	gen  func(r *rand.Rand) []uint32
}{
	{"empty", func(r *rand.Rand) []uint32 { return nil }},
	{"tiny", func(r *rand.Rand) []uint32 {
		return mkSet([]uint32{uint32(r.Intn(64)), uint32(r.Intn(64)), uint32(r.Intn(64))})
	}},
	{"sparse", func(r *rand.Rand) []uint32 {
		var v []uint32
		for i, x := 0, uint32(r.Intn(100)); i < 40; i++ {
			x += uint32(20 + r.Intn(400))
			v = append(v, x)
		}
		return v
	}},
	{"dense", func(r *rand.Rand) []uint32 {
		base := uint32(r.Intn(1000))
		var v []uint32
		for i := 0; i < 200; i++ {
			if r.Intn(3) != 0 {
				v = append(v, base+uint32(i))
			}
		}
		return v
	}},
	{"hub", func(r *rand.Rand) []uint32 {
		// A far-away hub vertex plus a dense tail: exercises window trimming.
		base := uint32(100000 + r.Intn(1000))
		v := []uint32{uint32(r.Intn(5))}
		for i := 0; i < 100; i++ {
			if r.Intn(4) != 0 {
				v = append(v, base+uint32(i))
			}
		}
		return mkSet(v)
	}},
	{"top", func(r *rand.Rand) []uint32 {
		// Elements at the very top of the uint32 universe: overflow checks.
		var v []uint32
		for i := 0; i < 64; i++ {
			v = append(v, ^uint32(0)-uint32(r.Intn(200)))
		}
		return mkSet(v)
	}},
}

func randShapedSet(r *rand.Rand) []uint32 {
	return setGens[r.Intn(len(setGens))].gen(r)
}

func TestPlanWordsInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		arr := randShapedSet(r)
		base, nw, lo, hi, ok := PlanWords(arr)
		if !ok {
			continue
		}
		if lo > maxTrim || len(arr)-hi > maxTrim || hi-lo < minWindowLen {
			t.Fatalf("plan out of bounds: lo=%d hi=%d n=%d", lo, hi, len(arr))
		}
		if nw > (hi-lo)/maxWordsPerCore {
			t.Fatalf("window too sparse: %d words for %d core elements", nw, hi-lo)
		}
		loVal, hiVal := uint64(base)<<6, (uint64(base)+uint64(nw))<<6
		for i, x := range arr {
			in := uint64(x) >= loVal && uint64(x) < hiVal
			if in != (i >= lo && i < hi) {
				t.Fatalf("element %d (idx %d) on wrong side of window [%d,%d) core [%d,%d)",
					x, i, loVal, hiVal, lo, hi)
			}
		}
	}
}

func TestSetContains(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		arr := randShapedSet(r)
		s := BuildSet(arr)
		if s.Len() != len(arr) {
			t.Fatalf("Len=%d want %d", s.Len(), len(arr))
		}
		member := make(map[uint32]bool, len(arr))
		for _, x := range arr {
			member[x] = true
			if !s.Contains(x) {
				t.Fatalf("missing member %d (window=%v)", x, s.HasWindow())
			}
		}
		for i := 0; i < 50; i++ {
			x := r.Uint32()
			if s.Contains(x) != member[x] {
				t.Fatalf("Contains(%d)=%v want %v", x, s.Contains(x), member[x])
			}
		}
	}
}

func TestSetAdd(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	s := BuildSet(nil)
	member := map[uint32]bool{}
	for i := 0; i < 400; i++ {
		var x uint32
		if i%3 == 0 {
			x = uint32(50000 + i) // dense run: should eventually earn a window
		} else {
			x = r.Uint32() % 1000000
		}
		s.Add(x)
		member[x] = true
		s.Add(x) // idempotent
	}
	if s.Len() != len(member) {
		t.Fatalf("Len=%d want %d", s.Len(), len(member))
	}
	prev := int64(-1)
	for _, x := range s.Elems() {
		if int64(x) <= prev {
			t.Fatalf("not strictly increasing at %d", x)
		}
		prev = int64(x)
		if !member[x] {
			t.Fatalf("stray element %d", x)
		}
	}
	for x := range member {
		if !s.Contains(x) {
			t.Fatalf("lost element %d", x)
		}
	}
}

// kernels under differential test: every family must agree with the scalar
// reference on every entry point.
var allKernels = []Kernel{Scalar, Fast, Adaptive}

func checkPair(t *testing.T, a, b []uint32) {
	t.Helper()
	want := refIntersect(a, b)
	sa, sb := BuildSet(a), BuildSet(b)
	for _, k := range allKernels {
		if got := k.IntersectSets(sa, sb, nil); !eq(got, want) {
			t.Fatalf("%s.IntersectSets(%v,%v)=%v want %v", k.Name, a, b, got, want)
		}
		if got := k.IntersectSets(sa, sb, make([]uint32, 0, 4)); !eq(got, want) {
			t.Fatalf("%s.IntersectSets scratch reuse mismatch", k.Name)
		}
		if got := k.IntersectCountSets(sa, sb); got != len(want) {
			t.Fatalf("%s.IntersectCountSets=%d want %d", k.Name, got, len(want))
		}
		if got := k.SetsIntersect(sa, sb); got != (len(want) > 0) {
			t.Fatalf("%s.SetsIntersect=%v want %v", k.Name, got, len(want) > 0)
		}
	}
	// Views without windows must agree too (engine slot buffers are views).
	if got := Adaptive.IntersectSets(ArrayView(a), sb, nil); !eq(got, want) {
		t.Fatalf("adaptive view×set mismatch: %v want %v", got, want)
	}
	if got := Classify(sa, sb); got > ClassBitmap {
		t.Fatalf("bad class %d", got)
	}
	checkSubset(t, a, b)
}

// refSubset is the oracle of IsSubsetSets: map-based a ⊆ b.
func refSubset(a, b []uint32) bool {
	in := make(map[uint32]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	for _, x := range a {
		if !in[x] {
			return false
		}
	}
	return true
}

// checkSubset holds IsSubsetSets(a, b) to the oracle with a window on both
// sides (where density earns one), on either side only, and on neither.
func checkSubset(t *testing.T, a, b []uint32) {
	t.Helper()
	want := refSubset(a, b)
	for _, sa := range []Set{BuildSet(a), ArrayView(a)} {
		for _, sb := range []Set{BuildSet(b), ArrayView(b)} {
			if got := IsSubsetSets(sa, sb); got != want {
				t.Fatalf("IsSubsetSets(%v, %v, windows %v/%v)=%v want %v", a, b, sa.HasWindow(), sb.HasWindow(), got, want)
			}
		}
	}
}

// subsetShapes derives from b the sets IsSubsetSets must answer about
// besides random ones, which are almost never subsets: every other element
// (a sparser subset, windowed or not), b with one element dropped at either
// end, and each of those with an outlier added below or above b's range or
// inside a gap of it.
func subsetShapes(b []uint32) [][]uint32 {
	var half []uint32
	for i := 0; i < len(b); i += 2 {
		half = append(half, b[i])
	}
	out := [][]uint32{nil, half, b}
	if len(b) > 1 {
		out = append(out, b[1:], b[:len(b)-1])
	}
	for _, s := range out[1:] {
		if len(b) == 0 {
			break
		}
		if b[0] > 0 {
			out = append(out, mkSet(append([]uint32{b[0] - 1}, s...)))
		}
		if b[len(b)-1] < ^uint32(0) {
			out = append(out, mkSet(append(append([]uint32(nil), s...), b[len(b)-1]+1)))
		}
		for i := 1; i < len(b); i++ {
			if b[i]-b[i-1] > 1 {
				out = append(out, mkSet(append(append([]uint32(nil), s...), b[i]-1)))
				break
			}
		}
	}
	return out
}

func TestIsSubsetSets(t *testing.T) {
	dense := func(base, n uint32) []uint32 {
		v := make([]uint32, n)
		for i := range v {
			v[i] = base + uint32(i)
		}
		return v
	}
	hub := func(lo, run, hi []uint32) []uint32 {
		return mkSet(append(append(append([]uint32(nil), lo...), run...), hi...))
	}
	bs := [][]uint32{
		nil,
		dense(0, 256),
		dense(100, 40),
		hub([]uint32{3, 9}, dense(70000, 200), []uint32{900000}), // trimmed outliers at both ends
		hub(nil, dense(64, 100), []uint32{5000, 6000}),
		mkSet([]uint32{0, 1, ^uint32(0)}),
	}
	r := rand.New(rand.NewSource(31))
	for _, b := range bs {
		for _, a := range append(subsetShapes(b), dense(1000, 64), dense(50, 300), randShapedSet(r)) {
			checkSubset(t, a, b)
			checkSubset(t, b, a)
		}
	}
	// A window outside the other's range, both ways.
	checkSubset(t, dense(0, 64), dense(4096, 64))
	checkSubset(t, dense(4096, 64), hub([]uint32{1}, dense(0, 64), []uint32{4096}))
	// Both windowed and the answer decided word by word: one missing bit.
	b := dense(640, 300)
	a := append(append([]uint32(nil), b[:150]...), b[151:]...)
	if !IsSubsetSets(BuildSet(a), BuildSet(b)) || IsSubsetSets(BuildSet(b), BuildSet(a)) {
		t.Fatal("one-bit difference between two windows decided wrongly")
	}
}

// refDifference is the oracle of a Mark's non-members: map-based a \ b.
func refDifference(a, b []uint32) []uint32 {
	in := make(map[uint32]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	var out []uint32
	for _, x := range a {
		if !in[x] {
			out = append(out, x)
		}
	}
	return out
}

// checkMark marks m — over a universe holding every element of a and b —
// with b, in two parts, and holds the probes of a to the oracles: Count, also
// of a suffix, Filter keeping members (refIntersect) and non-members
// (refDifference) into a fresh buffer, a short reused one and a itself, and
// Has. It then resets m and requires every word clear again, so whoever
// marks m next starts from nothing.
func checkMark(t *testing.T, m *Mark, a, b []uint32) {
	t.Helper()
	m.Set(b[:len(b)/2])
	m.Set(b[len(b)/2:])
	inter, diff := refIntersect(a, b), refDifference(a, b)
	if got := m.Count(a); got != len(inter) {
		t.Fatalf("Mark(%v).Count(%v)=%d want %d", b, a, got, len(inter))
	}
	if k := len(a) / 3; m.Count(a[k:]) != len(refIntersect(a[k:], b)) {
		t.Fatalf("Mark(%v).Count(%v)=%d want %d", b, a[k:], m.Count(a[k:]), len(refIntersect(a[k:], b)))
	}
	for _, members := range []bool{true, false} {
		want := diff
		if members {
			want = inter
		}
		if got := m.Filter(a, members, nil); !eq(got, want) {
			t.Fatalf("Mark(%v).Filter(%v, %v)=%v want %v", b, a, members, got, want)
		}
		if got := m.Filter(a, members, make([]uint32, 1, 2)); !eq(got, want) {
			t.Fatalf("Mark(%v).Filter(%v, %v) into a reused buffer=%v want %v", b, a, members, got, want)
		}
		c := append([]uint32(nil), a...)
		if got := m.Filter(c, members, c[:0]); !eq(got, want) {
			t.Fatalf("Mark(%v).Filter(%v, %v) in place=%v want %v", b, a, members, got, want)
		}
	}
	for _, x := range a {
		if m.Has(x) != Contains(b, x) {
			t.Fatalf("Mark(%v).Has(%d)=%v", b, x, m.Has(x))
		}
	}
	m.Reset()
	for i, w := range m.words {
		if w != 0 {
			t.Fatalf("word %d still %#x after Reset of a mark of %v", i, w, b)
		}
	}
}

// TestMarkRemarked re-marks one Mark with shaped sets in turn — dense ones,
// whose Reset clears their span, and sparse ones, whose Reset walks what was
// marked — and probes each against the next.
func TestMarkRemarked(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	var zero Mark
	zero.Reset() // the empty universe holds nothing to clear
	m := NewMark(1 << 18)
	prev := []uint32(nil)
	for iter := 0; iter < 2000; iter++ {
		s := randShapedSet(r)
		if len(s) > 0 && s[len(s)-1] >= 1<<18 {
			continue
		}
		checkMark(t, &m, prev, s)
		checkMark(t, &m, s, prev)
		prev = s
	}
}

func TestAdaptivePairsDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for iter := 0; iter < 3000; iter++ {
		checkPair(t, randShapedSet(r), randShapedSet(r))
	}
}

func TestAdaptivePairsEdgeCases(t *testing.T) {
	dense := func(base, n uint32) []uint32 {
		v := make([]uint32, n)
		for i := range v {
			v[i] = base + uint32(i)
		}
		return v
	}
	cases := [][2][]uint32{
		{nil, nil},
		{nil, dense(0, 100)},
		{dense(0, 100), dense(200, 100)},                           // adjacent disjoint windows
		{dense(0, 100), dense(64, 100)},                            // overlapping windows
		{dense(0, 100), dense(99, 100)},                            // single shared element
		{dense(0, 17), dense(16, 17)},                              // minimal windows
		{mkSet([]uint32{0, ^uint32(0)}), dense(^uint32(0)-80, 64)}, // top of universe
		{append([]uint32{3}, dense(70000, 60)...), append([]uint32{3}, dense(90000, 60)...)}, // shared hub outlier only
	}
	for _, c := range cases {
		checkPair(t, c[0], c[1])
		checkPair(t, c[1], c[0])
	}
}

func refIntersectK(sets [][]uint32) []uint32 {
	if len(sets) == 0 {
		return nil
	}
	acc := append([]uint32(nil), sets[0]...)
	for _, s := range sets[1:] {
		acc = refIntersect(acc, s)
	}
	return acc
}

func TestIntersectKDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for iter := 0; iter < 1500; iter++ {
		k := 1 + r.Intn(6)
		arrs := make([][]uint32, k)
		for i := range arrs {
			arrs[i] = randShapedSet(r)
		}
		want := refIntersectK(arrs)
		for _, kn := range allKernels {
			sets := make([]Set, k)
			for i := range arrs {
				sets[i] = BuildSet(arrs[i])
			}
			got, _ := kn.IntersectK(sets, nil, nil)
			if !eq(got, want) {
				t.Fatalf("%s.IntersectK(%v)=%v want %v", kn.Name, arrs, got, want)
			}
			for i := range arrs {
				sets[i] = BuildSet(arrs[i])
			}
			n, _, _ := kn.IntersectCountK(sets, nil, nil)
			if n != len(want) {
				t.Fatalf("%s.IntersectCountK=%d want %d", kn.Name, n, len(want))
			}
		}
	}
}

func TestIntersectKBufferReuse(t *testing.T) {
	// The (result, spare) return must let a caller ping-pong the same two
	// backing buffers across calls without growth once warm.
	r := rand.New(rand.NewSource(29))
	dst, tmp := make([]uint32, 0, 4096), make([]uint32, 0, 4096)
	for iter := 0; iter < 200; iter++ {
		k := 2 + r.Intn(4)
		arrs := make([][]uint32, k)
		sets := make([]Set, k)
		for i := range arrs {
			arrs[i] = randShapedSet(r)
			sets[i] = BuildSet(arrs[i])
		}
		want := refIntersectK(arrs)
		var got []uint32
		got, tmp = Adaptive.IntersectK(sets, dst, tmp)
		if !eq(got, want) {
			t.Fatalf("reused-buffer IntersectK mismatch: %v want %v", got, want)
		}
		dst = got
	}
}

// FuzzIntersectKernels differentially fuzzes every kernel family — array,
// bitmap-window, mixed, and k-way paths — against the scalar reference, the
// difference and subset kernels against their map oracles, and a Mark
// re-marked with each decoded set against the intersection and difference
// oracles.
// Inputs are raw bytes decoded into up to four sets so the fuzzer controls
// density, overlap, and trim shapes directly.
func FuzzIntersectKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), false)
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255}, uint8(3), true)
	f.Add([]byte{}, uint8(4), false)
	f.Fuzz(func(t *testing.T, data []byte, k uint8, dense bool) {
		nsets := 2 + int(k%3)
		arrs := make([][]uint32, nsets)
		// Decode: each byte extends the set chosen by its low bits; dense
		// mode keeps values packed so bitmap windows form.
		cur := make([]uint32, nsets)
		for i, bt := range data {
			j := i % nsets
			step := uint32(bt)
			if dense {
				step = uint32(bt%4) + 1
			}
			cur[j] += step
			arrs[j] = append(arrs[j], cur[j])
		}
		for j := range arrs {
			arrs[j] = mkSet(arrs[j])
		}

		// Pairwise: every family, every entry point, against the reference.
		a, b := arrs[0], arrs[1]
		want := refIntersect(a, b)
		sa, sb := BuildSet(a), BuildSet(b)
		for _, kn := range allKernels {
			if got := kn.IntersectSets(sa, sb, nil); !eq(got, want) {
				t.Fatalf("%s.IntersectSets mismatch: %v want %v", kn.Name, got, want)
			}
			if got := kn.IntersectCountSets(sa, sb); got != len(want) {
				t.Fatalf("%s.IntersectCountSets=%d want %d", kn.Name, got, len(want))
			}
			if got := kn.SetsIntersect(sa, sb); got != (len(want) > 0) {
				t.Fatalf("%s.SetsIntersect=%v want %v", kn.Name, got, len(want) > 0)
			}
			if got := kn.Intersect(a, b, nil); !eq(got, want) {
				t.Fatalf("%s.Intersect mismatch: %v want %v", kn.Name, got, want)
			}
			if got := kn.IntersectCount(a, b); got != len(want) {
				t.Fatalf("%s.IntersectCount=%d want %d", kn.Name, got, len(want))
			}
		}
		// Subset: random pairs both ways (|a| > |b| included), and the
		// subset-shaped derivations of b — empty, sparser, trimmed, with
		// outliers below, above and inside — against b and a prefix of b.
		checkSubset(t, a, b)
		checkSubset(t, b, a)
		for _, s := range subsetShapes(b) {
			checkSubset(t, s, b)
			checkSubset(t, s, b[:len(b)/2])
		}

		// Marks: one bitmap re-marked with every decoded set in turn, each
		// probed by every set, so a bit a Reset left behind shows.
		universe := 1
		for _, s := range arrs {
			if len(s) > 0 {
				universe = max(universe, int(s[len(s)-1])+1)
			}
		}
		m := NewMark(universe)
		for _, marked := range arrs {
			for _, probe := range arrs {
				checkMark(t, &m, probe, marked)
			}
		}

		// K-way across all decoded sets.
		wantK := refIntersectK(arrs)
		for _, kn := range allKernels {
			sets := make([]Set, nsets)
			for i := range arrs {
				sets[i] = BuildSet(arrs[i])
			}
			got, _ := kn.IntersectK(sets, nil, nil)
			if !eq(got, wantK) {
				t.Fatalf("%s.IntersectK mismatch: %v want %v", kn.Name, got, wantK)
			}
			for i := range arrs {
				sets[i] = BuildSet(arrs[i])
			}
			n, _, _ := kn.IntersectCountK(sets, nil, nil)
			if n != len(wantK) {
				t.Fatalf("%s.IntersectCountK=%d want %d", kn.Name, n, len(wantK))
			}
		}
	})
}
