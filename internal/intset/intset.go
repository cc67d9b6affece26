// Package intset provides set algebra over sorted []uint32 slices.
//
// Hypergraph pattern mining reduces almost entirely to intersections of
// sorted integer sequences: hyperedge vertex lists, adjacency lists, and
// previously computed overlap buffers. The paper's C++ implementation leans
// on AVX-512 for these kernels; this package is pure Go:
//
//   - the scalar kernels (Intersect, IntersectCount, ...) are textbook
//     two-pointer merges, used where operands are small and calls rare: the
//     pattern signature, the overlap graph, the DAL's load-time checks;
//   - the fast kernels (IntersectFast, IntersectCountFast) combine a
//     branch-reduced unrolled merge with galloping for skewed operand sizes,
//     standing in for the data-parallel speedup of SIMD set intersection;
//   - the adaptive Set kernels (set.go) pick per call among SWAR AND over
//     bitmap windows, window probes and the fast kernels — the path the
//     mining engine runs — and a Mark (mark.go) holds an operand that stays
//     fixed across an inner loop.
//
// internal/baseline bundles the scalar, fast and adaptive kernels into the
// kernel families of the SIMD ablation (Sec. 5.2).
//
// All functions require their inputs to be strictly increasing sequences and
// produce strictly increasing outputs. Output buffers may be nil; when a
// destination is passed it is reused (truncated to length zero first) to keep
// the mining inner loop allocation-free.
package intset

// gallopThreshold is the size ratio between the two operands above which the
// intersection switches from merging to galloping (binary-search probing of
// the larger operand). Chosen empirically; see BenchmarkGallopThreshold.
const gallopThreshold = 16

// Intersect stores the intersection of a and b into dst (reusing its
// capacity) and returns the resulting slice. The scalar two-pointer kernel.
//
//ohmlint:hotpath
func Intersect(a, b, dst []uint32) []uint32 {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			dst = append(dst, x)
			i++
			j++
		}
	}
	return dst
}

// IntersectCount returns |a ∩ b| using the scalar kernel.
//
//ohmlint:hotpath
func IntersectCount(a, b []uint32) int {
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Intersects reports whether a and b share at least one element, with early
// exit at the first common element. Used for emptiness (disconnection)
// checks, where a full intersection would be wasted work.
//
//ohmlint:hotpath
func Intersects(a, b []uint32) bool {
	// Gallop when sizes are skewed: probing the long side is much cheaper
	// than merging through it.
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return false
	}
	if len(b) >= gallopThreshold*len(a) {
		for _, x := range a {
			if Contains(b, x) {
				return true
			}
		}
		return false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			return true
		}
	}
	return false
}

// IsSubset reports whether every element of a occurs in b.
//
//ohmlint:hotpath
func IsSubset(a, b []uint32) bool {
	if len(a) > len(b) {
		return false
	}
	if len(b) >= gallopThreshold*len(a) {
		lo := 0
		for _, x := range a {
			k := searchFrom(b, lo, x)
			if k == len(b) || b[k] != x {
				return false
			}
			lo = k + 1
		}
		return true
	}
	i, j := 0, 0
	for i < len(a) {
		if j == len(b) {
			return false
		}
		x, y := a[i], b[j]
		switch {
		case x < y:
			return false
		case x > y:
			j++
		default:
			i++
			j++
		}
	}
	return true
}

// Equal reports whether a and b hold identical sequences.
//
//ohmlint:hotpath
func Equal(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if b[i] != x {
			return false
		}
	}
	return true
}

// Contains reports whether x occurs in the sorted slice s (binary search).
//
//ohmlint:hotpath
func Contains(s []uint32, x uint32) bool {
	k := searchFrom(s, 0, x)
	return k < len(s) && s[k] == x
}

// searchFrom returns the smallest index k in [lo, len(s)] such that
// s[k] >= x. A hand-rolled sort.Search to keep the inner loop inlinable.
func searchFrom(s []uint32, lo int, x uint32) int {
	hi := len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Union stores the sorted union of a and b into dst and returns it.
func Union(a, b, dst []uint32) []uint32 {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			dst = append(dst, x)
			i++
		case x > y:
			dst = append(dst, y)
			j++
		default:
			dst = append(dst, x)
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// SortedUnique reports whether s is strictly increasing (a valid set).
func SortedUnique(s []uint32) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}
