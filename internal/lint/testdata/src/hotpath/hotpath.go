// Package hotpath exercises the hotpath-alloc analyzer: run is the
// annotated root, step is reachable from it, cold is not.
package hotpath

import "sort"

type w struct {
	buf []uint32
	tmp []uint32
	set Set
}

// Set, BuildSet and NewMark mirror the intset container API so the fixture
// exercises the container-construction checks without importing the real
// package.
type Set struct{ arr []uint32 }

type Mark struct{ words []uint64 }

func NewMark(n int) Mark { return Mark{} }

func BuildSet(arr []uint32) Set {
	out := make([]uint32, len(arr))
	copy(out, arr)
	return Set{arr: out}
}

func (s *Set) Add(x uint32) { s.arr = append(s.arr, x) }

func ArrayView(arr []uint32) Set { return Set{arr: arr} }

//ohmlint:hotpath
func (x *w) run(n int) {
	x.step(n)
}

func (x *w) step(n int) {
	bad := make([]uint32, n)
	p := new(int)
	m := map[int]int{}
	s := []int{1, 2}
	f := func() {}
	sort.Slice(x.buf, func(a, b int) bool { return x.buf[a] < x.buf[b] })
	x.buf = append(x.buf, 1)     // ok: growth amortized into the same buffer
	x.tmp = append(x.buf[:0], 9) // ok: reset-reslice base
	y := append(x.tmp, 3)
	c := BuildSet(x.buf)  // container construction copies + plans a window
	x.set.Add(7)          // sorted insert may rebuild the window
	v := ArrayView(x.buf) // ok: zero-copy view over existing storage
	k := NewMark(n)       // a bitmap over the whole universe
	//ohmlint:allow hotpath-alloc -- demonstrating suppression
	z := make([]uint32, 1)
	_, _, _, _, _, _, _, _, _ = bad, p, m, s, y, z, c, v, k
	f()
}

// cold is not reachable from the root; construction-time allocation is
// fine here.
func cold(n int) []uint32 {
	return make([]uint32, n)
}
