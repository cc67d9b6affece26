package baseline

import (
	"fmt"
	"slices"

	"ohminer/internal/intset"
)

// This file holds the set-kernel families of the SIMD ablation (Sec. 5.2 of
// the paper): the production engine calls intset's adaptive kernels
// directly, and a baseline run selects a family at run time instead.

// maxK bounds the operand count of the stack-allocated k-way state. A
// plan's operand counts are bounded by the pattern arity (≤ 32 since subset
// masks are uint32), so mining never exceeds it.
const maxK = 32

// Kernel bundles one family of set-intersection primitives. Intersect
// operates on sorted []uint32 operands; the Set entry points additionally
// see the adaptive container metadata (bitmap windows, value ranges). For
// the Scalar and Fast families the Set entry points simply forward to the
// slice kernels over Set.Elems, so every family is interchangeable behind
// the seam.
type Kernel struct {
	// Intersect computes a ∩ b into dst and returns it. dst is reused via
	// dst[:0] (nil allocates) and must not alias a or b.
	Intersect func(a, b, dst []uint32) []uint32
	// IntersectSets computes a ∩ b into dst using the containers' native
	// representations. Same dst contract as Intersect.
	IntersectSets func(a, b intset.Set, dst []uint32) []uint32
	// IntersectCountSets returns |a ∩ b| without materializing.
	IntersectCountSets func(a, b intset.Set) int
	// SetsIntersect reports whether a and b share an element (early exit).
	SetsIntersect func(a, b intset.Set) bool
	// IntersectK intersects all sets into one of dst/tmp (rarest-first,
	// short-circuiting) and returns (result, spare) so the caller can retain
	// both backing buffers across calls. sets is reordered in place.
	IntersectK func(sets []intset.Set, dst, tmp []uint32) (res, spare []uint32)
	// Name identifies the kernel family in logs and benchmarks.
	Name string
}

// Scalar is the textbook two-pointer kernel family (the no-SIMD ablation).
var Scalar = Kernel{
	Intersect:          intset.Intersect,
	IntersectSets:      intersectSetsScalar,
	IntersectCountSets: intersectCountSetsScalar,
	SetsIntersect:      setsIntersectArrays,
	IntersectK:         intersectKScalar,
	Name:               "scalar",
}

// Fast is the galloping + unrolled kernel family (the SIMD stand-in).
var Fast = Kernel{
	Intersect:          intset.IntersectFast,
	IntersectSets:      intersectSetsFast,
	IntersectCountSets: intersectCountSetsFast,
	SetsIntersect:      setsIntersectArrays,
	IntersectK:         intersectKFast,
	Name:               "fast",
}

// Adaptive is the density-aware family production runs: SWAR word kernels
// over bitmap windows, probe kernels on mixed pairs, the Fast array kernels
// otherwise, and rarest-first k-way intersection with per-operand resume
// cursors.
var Adaptive = Kernel{
	Intersect:          intset.IntersectFast,
	IntersectSets:      intset.IntersectSetsAdaptive,
	IntersectCountSets: intset.IntersectCountSetsAdaptive,
	SetsIntersect:      intset.SetsIntersectAdaptive,
	IntersectK:         intersectKAdaptive,
	Name:               "adaptive",
}

// Kernels returns the kernel families, production's first.
func Kernels() []Kernel { return []Kernel{Adaptive, Fast, Scalar} }

// KernelByName returns the named kernel family.
func KernelByName(name string) (Kernel, error) {
	for _, k := range Kernels() {
		if k.Name == name {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("baseline: unknown kernel %q", name)
}

// Array-only Set adapters for the Scalar and Fast families. Method values
// would allocate closures at package init only, but plain functions keep the
// kernels comparable in profiles.

func intersectSetsScalar(a, b intset.Set, dst []uint32) []uint32 {
	return intset.Intersect(a.Elems(), b.Elems(), dst)
}
func intersectCountSetsScalar(a, b intset.Set) int {
	return intset.IntersectCount(a.Elems(), b.Elems())
}
func intersectSetsFast(a, b intset.Set, dst []uint32) []uint32 {
	return intset.IntersectFast(a.Elems(), b.Elems(), dst)
}
func intersectCountSetsFast(a, b intset.Set) int {
	return intset.IntersectCountFast(a.Elems(), b.Elems())
}
func setsIntersectArrays(a, b intset.Set) bool { return intset.Intersects(a.Elems(), b.Elems()) }

func intersectKScalar(sets []intset.Set, dst, tmp []uint32) ([]uint32, []uint32) {
	return intersectKPairwise(intset.Intersect, sets, dst, tmp)
}

func intersectKFast(sets []intset.Set, dst, tmp []uint32) ([]uint32, []uint32) {
	return intersectKPairwise(intset.IntersectFast, sets, dst, tmp)
}

// sortSetsByLen orders sets ascending by cardinality in place (insertion
// sort: operand counts are pattern-arity small). Rarest-first ordering makes
// the smallest set the seed of the k-way intersection, bounding every later
// probe pass by its length.
//
//ohmlint:hotpath
func sortSetsByLen(sets []intset.Set) {
	for i := 1; i < len(sets); i++ {
		x := sets[i]
		j := i - 1
		for j >= 0 && sets[j].Len() > x.Len() {
			sets[j+1] = sets[j]
			j--
		}
		sets[j+1] = x
	}
}

// intersectKAdaptive intersects every set into dst: operands are ordered by
// ascending cardinality, the rarest seeds the result, and each of its
// elements is probed through the remaining operands (window test or resumed
// binary search). The scan short-circuits the moment the candidate value
// range empties or any operand is exhausted — no intermediate result is ever
// materialized. sets is reordered in place. For k = 2 it defers to the
// binary adaptive kernel (which additionally exploits the SWAR path).
//
// Operand counts above maxK fall back to progressive pairwise intersection —
// impossible for mining plans, whose arity is bounded by the uint32 subset
// masks.
//
//ohmlint:hotpath
func intersectKAdaptive(sets []intset.Set, dst, tmp []uint32) (res, spare []uint32) {
	sortSetsByLen(sets)
	switch len(sets) {
	case 0:
		return dst[:0], tmp
	case 1:
		return append(dst[:0], sets[0].Elems()...), tmp
	case 2:
		return intset.IntersectSetsAdaptive(sets[0], sets[1], dst), tmp
	}
	if len(sets) > maxK {
		return intersectKPairwise(intset.IntersectFast, sets, dst, tmp)
	}
	dst = dst[:0]
	seed := sets[0].Elems()
	if len(seed) == 0 {
		return dst, tmp
	}
	lo, hi := seed[0], seed[len(seed)-1]
	for i := 1; i < len(sets); i++ {
		if m := sets[i].Min(); m > lo {
			lo = m
		}
		if m := sets[i].Max(); m < hi {
			hi = m
		}
	}
	if lo > hi {
		return dst, tmp
	}
	var cur [maxK]int
	start, _ := slices.BinarySearch(seed, lo)
scan:
	for _, x := range seed[start:] {
		if x > hi {
			break
		}
		for i := 1; i < len(sets); i++ {
			s := &sets[i]
			if s.InWindow(x) {
				if !s.Contains(x) {
					continue scan
				}
				continue
			}
			arr := s.Elems()
			k, _ := slices.BinarySearch(arr[cur[i]:], x)
			k += cur[i]
			if k == len(arr) {
				break scan // operand exhausted: no later x can match
			}
			cur[i] = k
			if arr[k] != x {
				continue scan
			}
			cur[i] = k + 1
		}
		dst = append(dst, x)
	}
	return dst, tmp
}

// intersectKPairwise is the progressive k-way fold the Scalar and Fast
// families use: operands ordered ascending, the running accumulator
// ping-pongs between dst and tmp, and the fold short-circuits the moment the
// accumulator empties. The returned spare buffer is whichever of dst/tmp the
// result did not land in, so callers can retain both backings across calls.
//
//ohmlint:hotpath
func intersectKPairwise(ints func(a, b, dst []uint32) []uint32, sets []intset.Set, dst, tmp []uint32) (res, spare []uint32) {
	sortSetsByLen(sets)
	if len(sets) == 0 {
		return dst[:0], tmp
	}
	acc := append(dst[:0], sets[0].Elems()...)
	for i := 1; i < len(sets); i++ {
		out := ints(acc, sets[i].Elems(), tmp[:0])
		tmp, acc = acc, out
		if len(acc) == 0 {
			break
		}
	}
	return acc, tmp
}
