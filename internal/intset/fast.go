package intset

// This file holds the fast array kernels: the stand-in for the paper's
// AVX-512 set intersection. The kernels combine
//
//   - galloping (binary-search probing) when operand sizes are skewed by
//     more than gallopThreshold, and
//   - a 4-way unrolled, branch-reduced merge otherwise, which lets the
//     compiler keep both cursors in registers and shortens the dependency
//     chain compared to the textbook merge.
//
// The adaptive Set kernels run them on array-only pairs; internal/baseline
// also runs them on their own as the Fast family of the SIMD ablation.

// IntersectFast computes a ∩ b into dst using galloping for skewed sizes and
// an unrolled merge otherwise. dst is reused via dst[:0] (nil allocates) and
// must not alias a or b: the unrolled merge reads whole blocks ahead of the
// write cursor, so an in-place call could overwrite unread input.
//
//ohmlint:hotpath
func IntersectFast(a, b, dst []uint32) []uint32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst[:0]
	}
	if len(b) >= gallopThreshold*len(a) {
		return intersectGallop(a, b, dst)
	}
	return intersectUnrolled(a, b, dst)
}

// IntersectCountFast returns |a ∩ b| using the fast kernel family.
//
//ohmlint:hotpath
func IntersectCountFast(a, b []uint32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	if len(b) >= gallopThreshold*len(a) {
		return intersectGallopCount(a, b)
	}
	return intersectUnrolledCount(a, b)
}

// intersectGallop probes each element of the short side a into the long side
// b with a binary search that resumes from the previous hit position.
func intersectGallop(a, b, dst []uint32) []uint32 {
	dst = dst[:0]
	lo := 0
	for _, x := range a {
		// Binary search resuming from the previous hit position; sortedness
		// of a guarantees hits only move rightwards.
		k := searchFrom(b, lo, x)
		if k == len(b) {
			break
		}
		if b[k] == x {
			dst = append(dst, x)
			lo = k + 1
		} else {
			lo = k
		}
	}
	return dst
}

func intersectGallopCount(a, b []uint32) int {
	n := 0
	lo := 0
	for _, x := range a {
		k := searchFrom(b, lo, x)
		if k == len(b) {
			break
		}
		if b[k] == x {
			n++
			lo = k + 1
		} else {
			lo = k
		}
	}
	return n
}

// intersectUnrolled merges a into b four short-side elements at a time. The
// long-side cursor advances through a block scan that the compiler compiles
// to straight-line comparisons, reducing branch mispredictions on random
// data relative to the textbook merge.
func intersectUnrolled(a, b, dst []uint32) []uint32 {
	dst = dst[:0]
	i, j := 0, 0
	// Main unrolled loop: handle 4 elements of a against 4 of b per round
	// when both sides have slack.
	for i+4 <= len(a) && j+4 <= len(b) {
		amax, bmax := a[i+3], b[j+3]
		a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
		bb := b[j : j+4 : j+4]
		for _, y := range bb {
			if y == a0 || y == a1 || y == a2 || y == a3 {
				dst = append(dst, y)
			}
		}
		// Advance whichever block is exhausted. Both blocks can only be
		// fully consumed together when their maxima coincide.
		if amax <= bmax {
			i += 4
		}
		if bmax <= amax {
			j += 4
		}
	}
	// Tail: plain merge.
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

func intersectUnrolledCount(a, b []uint32) int {
	n := 0
	i, j := 0, 0
	for i+4 <= len(a) && j+4 <= len(b) {
		amax, bmax := a[i+3], b[j+3]
		a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
		bb := b[j : j+4 : j+4]
		for _, y := range bb {
			if y == a0 || y == a1 || y == a2 || y == a3 {
				n++
			}
		}
		if amax <= bmax {
			i += 4
		}
		if bmax <= amax {
			j += 4
		}
	}
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
