package baseline

import (
	"math/rand"
	"slices"
	"testing"

	"ohminer/internal/intset"
)

// mkSet converts arbitrary values into a valid sorted unique set.
func mkSet(vals []uint32) []uint32 {
	s := slices.Clone(vals)
	slices.Sort(s)
	return slices.Compact(s)
}

// refIntersect is the oracle: map-based intersection of every set.
func refIntersect(sets ...[]uint32) []uint32 {
	if len(sets) == 0 {
		return nil
	}
	acc := sets[0]
	for _, s := range sets[1:] {
		in := make(map[uint32]bool, len(s))
		for _, x := range s {
			in[x] = true
		}
		var out []uint32
		for _, x := range acc {
			if in[x] {
				out = append(out, x)
			}
		}
		acc = out
	}
	return acc
}

// randShapedSet draws a set of one of the shapes that steer the adaptive
// kernels down different paths: empty, tiny, sparse, dense (windowed), a
// far-away hub element before a dense run (window trimming), and elements
// at the top of the uint32 universe (overflow).
func randShapedSet(r *rand.Rand) []uint32 {
	var v []uint32
	switch r.Intn(6) {
	case 1:
		for range 3 {
			v = append(v, uint32(r.Intn(64)))
		}
	case 2:
		for i, x := 0, uint32(r.Intn(100)); i < 40; i++ {
			x += uint32(20 + r.Intn(400))
			v = append(v, x)
		}
	case 3:
		base := uint32(r.Intn(1000))
		for i := range 200 {
			if r.Intn(3) != 0 {
				v = append(v, base+uint32(i))
			}
		}
	case 4:
		base := uint32(100000 + r.Intn(1000))
		v = append(v, uint32(r.Intn(5)))
		for i := range 100 {
			if r.Intn(4) != 0 {
				v = append(v, base+uint32(i))
			}
		}
	case 5:
		for range 64 {
			v = append(v, ^uint32(0)-uint32(r.Intn(200)))
		}
	}
	return mkSet(v)
}

// buildSet builds a Set the way the DAL builds its containers: the window
// intset.PlanWords picks, filled by FillWords, assembled by View. The Set
// aliases arr.
func buildSet(arr []uint32) intset.Set {
	base, nw, lo, hi, ok := intset.PlanWords(arr)
	if !ok {
		return intset.ArrayView(arr)
	}
	words := make([]uint64, nw)
	intset.FillWords(words, base, arr[lo:hi])
	return intset.View(arr, words, base)
}

func buildSets(arrs [][]uint32) []intset.Set {
	sets := make([]intset.Set, len(arrs))
	for i, a := range arrs {
		sets[i] = buildSet(a)
	}
	return sets
}

// checkFamilies holds every family's pair entry points on a and b, and its
// k-way entry point on arrs, to the oracle — so the families agree with each
// other — and each family's k-way result to a fold of its own pair kernel.
func checkFamilies(t *testing.T, a, b []uint32, arrs [][]uint32) {
	t.Helper()
	want, wantK := refIntersect(a, b), refIntersect(arrs...)
	sa, sb := buildSet(a), buildSet(b)
	for _, k := range Kernels() {
		if got := k.Intersect(a, b, nil); !slices.Equal(got, want) {
			t.Fatalf("%s.Intersect(%v, %v)=%v want %v", k.Name, a, b, got, want)
		}
		if got := k.IntersectSets(sa, sb, nil); !slices.Equal(got, want) {
			t.Fatalf("%s.IntersectSets(%v, %v)=%v want %v", k.Name, a, b, got, want)
		}
		if got := k.IntersectCountSets(sa, sb); got != len(want) {
			t.Fatalf("%s.IntersectCountSets(%v, %v)=%d want %d", k.Name, a, b, got, len(want))
		}
		if got := k.SetsIntersect(sa, sb); got != (len(want) > 0) {
			t.Fatalf("%s.SetsIntersect(%v, %v)=%v want %v", k.Name, a, b, got, len(want) > 0)
		}
		got, _ := k.IntersectK(buildSets(arrs), nil, nil)
		if !slices.Equal(got, wantK) {
			t.Fatalf("%s.IntersectK(%v)=%v want %v", k.Name, arrs, got, wantK)
		}
		var fold []uint32
		for i, s := range arrs {
			if i == 0 {
				fold = s
			} else {
				fold = k.IntersectSets(intset.ArrayView(fold), buildSet(s), nil)
			}
		}
		if !slices.Equal(got, fold) {
			t.Fatalf("%s.IntersectK(%v)=%v, its pair kernel folds to %v", k.Name, arrs, got, fold)
		}
	}
}

// TestKernelAgreement drives every kernel family over random dense/sparse
// mixes and demands bit-identical outputs.
func TestKernelAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for range 200 {
		space := 1 + rng.Intn(400)
		arrs := make([][]uint32, 2+rng.Intn(3))
		for i := range arrs {
			n := rng.Intn(200)
			for range n {
				arrs[i] = append(arrs[i], uint32(rng.Intn(space)))
			}
			arrs[i] = mkSet(arrs[i])
		}
		checkFamilies(t, arrs[0], arrs[1], arrs)
	}
}

func TestIntersectKDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for range 1500 {
		arrs := make([][]uint32, 1+r.Intn(6))
		for i := range arrs {
			arrs[i] = randShapedSet(r)
		}
		want := refIntersect(arrs...)
		for _, k := range Kernels() {
			if got, _ := k.IntersectK(buildSets(arrs), nil, nil); !slices.Equal(got, want) {
				t.Fatalf("%s.IntersectK(%v)=%v want %v", k.Name, arrs, got, want)
			}
		}
	}
	// Past maxK operands the adaptive kernel folds pairwise.
	arrs := make([][]uint32, maxK+1)
	for i := range arrs {
		arrs[i] = []uint32{1, 2, uint32(3 + i%2)}
	}
	if got, _ := Adaptive.IntersectK(buildSets(arrs), nil, nil); !slices.Equal(got, []uint32{1, 2}) {
		t.Fatalf("IntersectK over %d operands=%v want [1 2]", len(arrs), got)
	}
}

func TestIntersectKBufferReuse(t *testing.T) {
	// The (result, spare) return must let a caller ping-pong the same two
	// backing buffers across calls without growth once warm.
	r := rand.New(rand.NewSource(29))
	for _, k := range Kernels() {
		dst, tmp := make([]uint32, 0, 4096), make([]uint32, 0, 4096)
		for range 200 {
			arrs := make([][]uint32, 2+r.Intn(4))
			for i := range arrs {
				arrs[i] = randShapedSet(r)
			}
			var got []uint32
			got, tmp = k.IntersectK(buildSets(arrs), dst, tmp)
			if want := refIntersect(arrs...); !slices.Equal(got, want) {
				t.Fatalf("%s: reused-buffer IntersectK mismatch: %v want %v", k.Name, got, want)
			}
			if cap(got) != 4096 || cap(tmp) != 4096 {
				t.Fatalf("%s: buffers grew or were dropped: cap %d and %d", k.Name, cap(got), cap(tmp))
			}
			dst = got
		}
	}
}

// FuzzKernelFamilies differentially fuzzes every kernel family's pair and
// k-way entry points against each other and against the map oracle. Inputs
// are raw bytes decoded into up to four sets so the fuzzer controls density,
// overlap, and trim shapes directly.
func FuzzKernelFamilies(f *testing.F) {
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
		checkFamilies(t, arrs[0], arrs[1], arrs)
		checkFamilies(t, arrs[1], arrs[0], arrs)
	})
}
