package intset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// mkSet converts arbitrary values into a valid sorted unique set.
func mkSet(vals []uint32) []uint32 {
	if len(vals) == 0 {
		return nil
	}
	s := append([]uint32(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:1]
	for _, x := range s[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// refIntersect is the oracle: map-based intersection.
func refIntersect(a, b []uint32) []uint32 {
	in := make(map[uint32]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	var out []uint32
	for _, x := range b {
		if in[x] {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func eq(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// arrayKernels are the slice kernels under test: the scalar merge and the
// fast gallop/unrolled pair.
var arrayKernels = []struct {
	name  string
	ints  func(a, b, dst []uint32) []uint32
	count func(a, b []uint32) int
}{
	{"scalar", Intersect, IntersectCount},
	{"fast", IntersectFast, IntersectCountFast},
}

func TestIntersectBasic(t *testing.T) {
	cases := []struct{ a, b, want []uint32 }{
		{nil, nil, nil},
		{[]uint32{1, 2, 3}, nil, nil},
		{nil, []uint32{1, 2, 3}, nil},
		{[]uint32{1, 2, 3}, []uint32{4, 5}, nil},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, []uint32{1, 2, 3}},
		{[]uint32{1, 3, 5, 7}, []uint32{2, 3, 6, 7}, []uint32{3, 7}},
		{[]uint32{0}, []uint32{0}, []uint32{0}},
		{[]uint32{5}, []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []uint32{5}},
	}
	for _, c := range cases {
		for _, k := range arrayKernels {
			got := k.ints(c.a, c.b, nil)
			if !eq(got, c.want) {
				t.Errorf("%s intersect(%v,%v)=%v want %v", k.name, c.a, c.b, got, c.want)
			}
			if n := k.count(c.a, c.b); n != len(c.want) {
				t.Errorf("%s count(%v,%v)=%d want %d", k.name, c.a, c.b, n, len(c.want))
			}
		}
	}
}

func TestIntersectPropertyQuick(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, b := mkSet(av), mkSet(bv)
		want := refIntersect(a, b)
		for _, k := range arrayKernels {
			got := k.ints(a, b, nil)
			if !eq(got, want) || !SortedUnique(got) {
				return false
			}
			if k.count(a, b) != len(want) {
				return false
			}
		}
		return Intersects(a, b) == (len(want) > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectSkewedGallop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	big := make([]uint32, 0, 5000)
	for v := uint32(0); len(big) < 5000; v += uint32(rng.Intn(3) + 1) {
		big = append(big, v)
	}
	for trial := 0; trial < 50; trial++ {
		small := make([]uint32, 0, 8)
		for i := 0; i < 8; i++ {
			small = append(small, uint32(rng.Intn(16000)))
		}
		small = mkSet(small)
		want := refIntersect(small, big)
		if got := IntersectFast(small, big, nil); !eq(got, want) {
			t.Fatalf("gallop mismatch: got %v want %v", got, want)
		}
		if got := IntersectFast(big, small, nil); !eq(got, want) {
			t.Fatalf("gallop (swapped) mismatch: got %v want %v", got, want)
		}
		if n := IntersectCountFast(small, big); n != len(want) {
			t.Fatalf("gallop count=%d want %d", n, len(want))
		}
	}
}

func TestIntersectDstReuse(t *testing.T) {
	a := []uint32{1, 2, 3, 4, 5}
	b := []uint32{2, 4, 6}
	dst := make([]uint32, 0, 8)
	out := Intersect(a, b, dst)
	if !eq(out, []uint32{2, 4}) {
		t.Fatalf("got %v", out)
	}
	if cap(out) != cap(dst) {
		t.Fatalf("dst capacity not reused")
	}
	// Reuse again with different content.
	out2 := IntersectFast(a, []uint32{1, 5}, out)
	if !eq(out2, []uint32{1, 5}) {
		t.Fatalf("got %v", out2)
	}
}

func TestIsSubset(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want bool
	}{
		{nil, nil, true},
		{nil, []uint32{1}, true},
		{[]uint32{1}, nil, false},
		{[]uint32{1, 3}, []uint32{1, 2, 3}, true},
		{[]uint32{1, 4}, []uint32{1, 2, 3}, false},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, true},
		{[]uint32{0, 9}, []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, true},
	}
	for _, c := range cases {
		if got := IsSubset(c.a, c.b); got != c.want {
			t.Errorf("IsSubset(%v,%v)=%v want %v", c.a, c.b, got, c.want)
		}
	}
	// Property: a ∩ b == a  ⇔  IsSubset(a, b).
	f := func(av, bv []uint32) bool {
		a, b := mkSet(av), mkSet(bv)
		return IsSubset(a, b) == eq(refIntersect(a, b), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnion(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, b := mkSet(av), mkSet(bv)
		u := Union(a, b, nil)
		if !SortedUnique(u) || !IsSubset(a, u) || !IsSubset(b, u) {
			return false
		}
		// inclusion-exclusion: |a ∪ b| = |a| + |b| - |a ∩ b|
		return len(u) == len(a)+len(b)-IntersectCount(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestContainsAndSearch(t *testing.T) {
	s := []uint32{2, 4, 6, 8}
	for _, x := range s {
		if !Contains(s, x) {
			t.Errorf("Contains(%v,%d)=false", s, x)
		}
	}
	for _, x := range []uint32{0, 1, 3, 5, 7, 9, 100} {
		if Contains(s, x) {
			t.Errorf("Contains(%v,%d)=true", s, x)
		}
	}
	if Contains(nil, 1) {
		t.Error("Contains(nil,1)=true")
	}
}

func TestSortedUnique(t *testing.T) {
	if !SortedUnique(nil) || !SortedUnique([]uint32{3}) || !SortedUnique([]uint32{1, 2, 9}) {
		t.Error("valid sets rejected")
	}
	if SortedUnique([]uint32{1, 1}) || SortedUnique([]uint32{2, 1}) {
		t.Error("invalid sets accepted")
	}
}

func TestEqual(t *testing.T) {
	if !Equal(nil, nil) || !Equal([]uint32{1, 2}, []uint32{1, 2}) {
		t.Error("equal sets rejected")
	}
	if Equal([]uint32{1}, []uint32{1, 2}) || Equal([]uint32{1, 3}, []uint32{1, 2}) {
		t.Error("unequal sets accepted")
	}
}

func randSet(rng *rand.Rand, n, space int) []uint32 {
	s := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, uint32(rng.Intn(space)))
	}
	return mkSet(s)
}

func BenchmarkIntersectScalar(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randSet(rng, 512, 4096)
	y := randSet(rng, 512, 4096)
	dst := make([]uint32, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(x, y, dst)
	}
}

func BenchmarkIntersectFast(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randSet(rng, 512, 4096)
	y := randSet(rng, 512, 4096)
	dst := make([]uint32, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = IntersectFast(x, y, dst)
	}
}

// BenchmarkGallopThreshold documents the skewed-size regime where galloping
// wins; one series per size ratio.
func BenchmarkGallopThreshold(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	big := randSet(rng, 1<<14, 1<<18)
	for _, small := range []int{4, 16, 64, 256} {
		s := randSet(rng, small, 1<<18)
		b.Run("ratio-"+itoa(len(big)/len(s)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				IntersectCountFast(s, big)
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
