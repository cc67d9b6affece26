package intset

import "math/bits"

// This file implements the adaptive container layer: a Set that pairs the
// sorted []uint32 view every existing kernel understands with an optional
// packed bitmap window over the set's dense core, chosen by density at build
// time (and re-chosen on mutation). The bitmap enables
//
//   - word-parallel SWAR AND/popcount when both operands carry overlapping
//     windows (the dominant case for hub-adjacency intersections),
//   - O(1) membership probes when one operand is a long dense list and the
//     other a short one (rarest-first k-way intersection), and
//   - value-range pruning for free: the window bounds tell both kernels
//     where an intersection can possibly live, so sets with nearly disjoint
//     spans short-circuit after a couple of comparisons.
//
// Sparse or tiny sets never build a window and keep paying exactly the
// array-kernel costs, so the adaptive family is never worse than Fast by
// more than a branch per call.

const (
	// minWindowLen is the smallest cardinality for which a bitmap window is
	// considered: below it the array kernels win on constant factors alone.
	minWindowLen = 16
	// maxWordsPerCore caps the window size at core/8 words, i.e. the core
	// must fill at least one bit in eight (density ≥ 1/8 over its span).
	// At that bound the window costs core bytes — a quarter of the sorted
	// array it accelerates — and an AND over it still touches 8× fewer
	// machine words than a merge touches elements.
	maxWordsPerCore = 8
	// maxTrim bounds how many outlier elements may be shaved off each end of
	// a set when planning its window. Hub-style sets ({sharedVertex} ∪ dense
	// run) are dense except for a few far-away elements; trimming those keeps
	// the window packed while membership falls back to the array for them.
	maxTrim = 4
	// maxK bounds the operand count of the stack-allocated k-way state. The
	// engine's operand counts are bounded by the pattern arity (≤ 32 since
	// subset masks are uint32), so mining never exceeds it.
	maxK = 32
)

// Set is an adaptive integer set: a strictly increasing []uint32 view plus
// an optional packed bitmap window covering the contiguous word range
// [Base()·64, (Base()+Words())·64). Every element inside that value range is
// mirrored in the window and every window bit mirrors an element, so
// membership inside the window is a word test and membership outside falls
// back to binary search. The zero Set is the empty set.
//
// Sets built by View/ArrayView alias their inputs and must be treated as
// immutable; BuildSet copies and owns its storage, and only owned sets may
// be mutated through Add.
type Set struct {
	arr   []uint32
	words []uint64
	base  uint32
}

// ArrayView wraps a sorted slice as a Set without a bitmap window. The Set
// aliases arr; it allocates nothing.
//
//ohmlint:hotpath
func ArrayView(arr []uint32) Set { return Set{arr: arr} }

// View assembles a Set from a sorted slice and a prebuilt window (as
// produced by PlanWords/FillWords, e.g. out of the DAL's container arenas).
// It aliases both slices and allocates nothing. words may be nil.
//
//ohmlint:hotpath
func View(arr []uint32, words []uint64, base uint32) Set {
	return Set{arr: arr, words: words, base: base}
}

// BuildSet copies the sorted slice into an owned Set and builds a bitmap
// window if the density rule warrants one. Build-time only: it allocates.
func BuildSet(arr []uint32) Set {
	s := Set{arr: append([]uint32(nil), arr...)}
	s.rebuildWindow()
	return s
}

// Add inserts x, keeping the array sorted and re-choosing the container
// (window rebuilt or dropped) — the mutation path of the adaptive rule.
// Only owned sets (BuildSet) may be mutated; Add on a view would write
// through to the aliased storage. Build-time only: it allocates.
func (s *Set) Add(x uint32) {
	k := searchFrom(s.arr, 0, x)
	if k < len(s.arr) && s.arr[k] == x {
		return
	}
	s.arr = append(s.arr, 0)
	copy(s.arr[k+1:], s.arr[k:])
	s.arr[k] = x
	s.rebuildWindow()
}

// rebuildWindow re-evaluates the density rule for the current elements.
func (s *Set) rebuildWindow() {
	base, nw, lo, hi, ok := PlanWords(s.arr)
	if !ok {
		s.words, s.base = nil, 0
		return
	}
	if cap(s.words) >= nw {
		s.words = s.words[:nw]
		clear(s.words)
	} else {
		s.words = make([]uint64, nw)
	}
	s.base = base
	FillWords(s.words, base, s.arr[lo:hi])
}

// Len returns the cardinality.
//
//ohmlint:hotpath
func (s Set) Len() int { return len(s.arr) }

// Elems returns the sorted element view. It aliases the Set's storage.
//
//ohmlint:hotpath
func (s Set) Elems() []uint32 { return s.arr }

// HasWindow reports whether the set carries a bitmap window.
//
//ohmlint:hotpath
func (s Set) HasWindow() bool { return s.words != nil }

// Base returns the first word index the window covers (meaningful only when
// HasWindow).
func (s Set) Base() uint32 { return s.base }

// windowRange returns the covered value range [lo, hi) as uint64 to avoid
// overflow at the top of the uint32 universe.
func (s Set) windowRange() (lo, hi uint64) {
	return uint64(s.base) << 6, (uint64(s.base) + uint64(len(s.words))) << 6
}

// inWindow reports whether x falls inside the window's value range.
//
//ohmlint:hotpath
func (s Set) inWindow(x uint32) bool {
	w := x >> 6
	return w >= s.base && w < s.base+uint32(len(s.words))
}

// Contains reports membership: a word test inside the window, binary search
// outside it.
//
//ohmlint:hotpath
func (s Set) Contains(x uint32) bool {
	if s.words != nil && s.inWindow(x) {
		return s.words[(x>>6)-s.base]&(1<<(x&63)) != 0
	}
	k := searchFrom(s.arr, 0, x)
	return k < len(s.arr) && s.arr[k] == x
}

// Min and Max return the value bounds; both require a non-empty set.
func (s Set) Min() uint32 { return s.arr[0] }
func (s Set) Max() uint32 { return s.arr[len(s.arr)-1] }

// PlanWords decides whether a sorted slice warrants a bitmap window and, if
// so, where: the returned window spans words [base, base+nw) and covers the
// core arr[lo:hi]; elements outside the core (at most maxTrim per end) fall
// strictly outside the window's value range. ok is false when the set is too
// small or too sparse — the array representation stays.
//
// The density rule: the core must hold at least minWindowLen elements and
// fill its span at ≥ 1 bit per 8·64 = one element per maxWordsPerCore words'
// worth of span, so the window never costs more than |core| bytes.
func PlanWords(arr []uint32) (base uint32, nw, lo, hi int, ok bool) {
	n := len(arr)
	if n < minWindowLen {
		return 0, 0, 0, 0, false
	}
	// Prefer the least trimming: try total trims 0, 1, 2, ... and take the
	// first head/tail split whose core is dense enough and whose trimmed
	// outliers fall outside the window words.
	for total := 0; total <= 2*maxTrim; total++ {
		for h := 0; h <= total && h <= maxTrim; h++ {
			t := total - h
			if t > maxTrim || n-h-t < minWindowLen {
				continue
			}
			core := arr[h : n-t]
			b := core[0] >> 6
			end := core[len(core)-1]>>6 + 1
			if int(end-b) > len(core)/maxWordsPerCore {
				continue // too sparse over its span
			}
			if h > 0 && arr[h-1]>>6 >= b {
				continue // trimmed head element would land inside the window
			}
			if t > 0 && arr[n-t]>>6 < end {
				continue // trimmed tail element would land inside the window
			}
			return b, int(end - b), h, n - t, true
		}
	}
	return 0, 0, 0, 0, false
}

// FillWords sets the bit of every core element into words, which must hold
// the PlanWords-reported word count and arrive zeroed.
func FillWords(words []uint64, base uint32, core []uint32) {
	for _, x := range core {
		words[(x>>6)-base] |= 1 << (x & 63)
	}
}

// PairClass classifies one binary set-kernel invocation by the
// representations actually in play — the per-kernel counters surfaced in
// engine.Stats. Two overlapping windows run word-parallel (ClassBitmap); one
// usable window runs probe-accelerated (ClassMixed), and so does a slice
// probed into a Mark; anything else runs the array kernels (ClassArray).
type PairClass uint8

const (
	ClassArray PairClass = iota
	ClassMixed
	ClassBitmap
)

func (c PairClass) String() string {
	switch c {
	case ClassBitmap:
		return "bitmap"
	case ClassMixed:
		return "mixed"
	default:
		return "array"
	}
}

// Classify reports which kernel path an adaptive binary operation over a and
// b takes.
//
//ohmlint:hotpath
func Classify(a, b Set) PairClass {
	if a.words != nil && b.words != nil {
		if lo, hi := overlapWords(a, b); hi > lo {
			return ClassBitmap
		}
	}
	if a.words != nil || b.words != nil {
		return ClassMixed
	}
	return ClassArray
}

// overlapWords returns the word range [lo, hi) covered by both windows.
func overlapWords(a, b Set) (lo, hi uint32) {
	lo, hi = a.base, a.base+uint32(len(a.words))
	if b.base > lo {
		lo = b.base
	}
	if e := b.base + uint32(len(b.words)); e < hi {
		hi = e
	}
	return lo, hi
}

// rangeOverlap returns the value range [lo, hi] an intersection of a and b
// can live in; ok is false when the ranges are disjoint (empty result).
//
//ohmlint:hotpath
func rangeOverlap(a, b Set) (lo, hi uint32, ok bool) {
	if len(a.arr) == 0 || len(b.arr) == 0 {
		return 0, 0, false
	}
	lo, hi = a.Min(), a.Max()
	if m := b.Min(); m > lo {
		lo = m
	}
	if m := b.Max(); m < hi {
		hi = m
	}
	return lo, hi, lo <= hi
}

// IntersectSetsAdaptive computes a ∩ b into dst, choosing the kernel by the
// operands' representations: SWAR word AND over overlapping windows, window
// probes when only the longer side has one, the Fast array family otherwise.
// dst follows the IntersectFast contract (reused via dst[:0]; nil allocates;
// must not otherwise alias the operands).
//
//ohmlint:hotpath
func IntersectSetsAdaptive(a, b Set, dst []uint32) []uint32 {
	if a.words == nil && b.words == nil {
		// Array-array: dispatch straight to the gallop family so purely
		// sparse workloads pay nothing over the static fast kernel.
		return IntersectFast(a.arr, b.arr, dst)
	}
	lo, hi, ok := rangeOverlap(a, b)
	if !ok {
		return dst[:0]
	}
	if a.words != nil && b.words != nil {
		if wlo, whi := overlapWords(a, b); whi > wlo {
			return intersectWindows(a, b, wlo, whi, dst)
		}
	}
	if len(a.arr) > len(b.arr) {
		a, b = b, a
	}
	if b.words != nil {
		return intersectProbe(a, b, lo, hi, dst)
	}
	return IntersectFast(a.arr, b.arr, dst)
}

// IntersectCountSetsAdaptive returns |a ∩ b| on the same dispatch rule.
//
//ohmlint:hotpath
func IntersectCountSetsAdaptive(a, b Set) int {
	if a.words == nil && b.words == nil {
		return IntersectCountFast(a.arr, b.arr)
	}
	lo, hi, ok := rangeOverlap(a, b)
	if !ok {
		return 0
	}
	if a.words != nil && b.words != nil {
		if wlo, whi := overlapWords(a, b); whi > wlo {
			return intersectWindowsCount(a, b, wlo, whi)
		}
	}
	if len(a.arr) > len(b.arr) {
		a, b = b, a
	}
	if b.words != nil {
		return intersectProbeCount(a, b, lo, hi)
	}
	return IntersectCountFast(a.arr, b.arr)
}

// SetsIntersectAdaptive reports whether a and b share an element, with early
// exit at the first hit (word-parallel over overlapping windows).
//
//ohmlint:hotpath
func SetsIntersectAdaptive(a, b Set) bool {
	if a.words == nil && b.words == nil {
		return Intersects(a.arr, b.arr)
	}
	lo, hi, ok := rangeOverlap(a, b)
	if !ok {
		return false
	}
	if a.words != nil && b.words != nil {
		if wlo, whi := overlapWords(a, b); whi > wlo {
			return windowsIntersect(a, b, wlo, whi)
		}
	}
	if len(a.arr) > len(b.arr) {
		a, b = b, a
	}
	if b.words != nil {
		return probeIntersects(a, b, lo, hi)
	}
	return Intersects(a.arr, b.arr)
}

// IsSubsetSets reports whether every element of a occurs in b, with early
// exit at the first one that does not. Over the words both windows cover it
// tests a &^ b word by word; a's elements outside that range — its trimmed
// outliers and whatever its window holds beyond b's — are probed into b. With
// only b windowed every element of a is probed (a word test inside b's
// window), and without a window on b it is IsSubset's merge or gallop.
//
//ohmlint:hotpath
func IsSubsetSets(a, b Set) bool {
	if len(a.arr) == 0 {
		return true
	}
	if len(a.arr) > len(b.arr) || a.Min() < b.Min() || a.Max() > b.Max() {
		return false
	}
	if b.words == nil {
		return IsSubset(a.arr, b.arr)
	}
	if a.words != nil {
		if wlo, whi := overlapWords(a, b); whi > wlo {
			aw := a.words[wlo-a.base : whi-a.base]
			bw := b.words[wlo-b.base:]
			for w, x := range aw {
				if x&^bw[w] != 0 {
					return false
				}
			}
			// Walk in from both ends: every element passed is probed anyway,
			// and a window inside b's leaves only a's trimmed outliers.
			lo, hi := uint64(wlo)<<6, uint64(whi)<<6
			head, tail := 0, len(a.arr)
			for head < tail && uint64(a.arr[head]) < lo {
				head++
			}
			for tail > head && uint64(a.arr[tail-1]) >= hi {
				tail--
			}
			return probeSubset(a.arr[:head], b) && probeSubset(a.arr[tail:], b)
		}
	}
	return probeSubset(a.arr, b)
}

// probeSubset reports whether b holds every element of the sorted slice a: a
// word test inside b's window, binary search with a monotone resume cursor
// outside it.
func probeSubset(a []uint32, b Set) bool {
	cur := 0
	for _, x := range a {
		if b.inWindow(x) {
			if b.words[(x>>6)-b.base]&(1<<(x&63)) == 0 {
				return false
			}
			continue
		}
		cur = searchFrom(b.arr, cur, x)
		if cur == len(b.arr) || b.arr[cur] != x {
			return false
		}
		cur++
	}
	return true
}

// intersectWindows is the SWAR path: AND the overlapping words [wlo, whi)
// and decode the survivors, then pick up the out-of-range elements of
// whichever operand has fewer of them by probing the other set. Elements
// below the shared window sort before every decoded bit and elements above
// it after, so the three phases append in order.
func intersectWindows(a, b Set, wlo, whi uint32, dst []uint32) []uint32 {
	dst = dst[:0]
	loVal := uint64(wlo) << 6
	hiVal := uint64(whi) << 6
	s, o := outsideChooser(a, b, loVal, hiVal)
	head, tail := outsideBounds(s, loVal, hiVal)
	for _, x := range s.arr[:head] {
		if o.Contains(x) {
			dst = append(dst, x)
		}
	}
	aw := a.words[wlo-a.base:]
	bw := b.words[wlo-b.base:]
	for w := uint32(0); w < whi-wlo; w++ {
		m := aw[w] & bw[w]
		val := (uint64(wlo+w) << 6)
		for m != 0 {
			dst = append(dst, uint32(val)+uint32(bits.TrailingZeros64(m)))
			m &= m - 1
		}
	}
	for _, x := range s.arr[tail:] {
		if o.Contains(x) {
			dst = append(dst, x)
		}
	}
	return dst
}

func intersectWindowsCount(a, b Set, wlo, whi uint32) int {
	n := 0
	loVal := uint64(wlo) << 6
	hiVal := uint64(whi) << 6
	s, o := outsideChooser(a, b, loVal, hiVal)
	head, tail := outsideBounds(s, loVal, hiVal)
	for _, x := range s.arr[:head] {
		if o.Contains(x) {
			n++
		}
	}
	aw := a.words[wlo-a.base:]
	bw := b.words[wlo-b.base:]
	for w := uint32(0); w < whi-wlo; w++ {
		n += bits.OnesCount64(aw[w] & bw[w])
	}
	for _, x := range s.arr[tail:] {
		if o.Contains(x) {
			n++
		}
	}
	return n
}

func windowsIntersect(a, b Set, wlo, whi uint32) bool {
	aw := a.words[wlo-a.base:]
	bw := b.words[wlo-b.base:]
	for w := uint32(0); w < whi-wlo; w++ {
		if aw[w]&bw[w] != 0 {
			return true
		}
	}
	loVal := uint64(wlo) << 6
	hiVal := uint64(whi) << 6
	s, o := outsideChooser(a, b, loVal, hiVal)
	head, tail := outsideBounds(s, loVal, hiVal)
	for _, x := range s.arr[:head] {
		if o.Contains(x) {
			return true
		}
	}
	for _, x := range s.arr[tail:] {
		if o.Contains(x) {
			return true
		}
	}
	return false
}

// outsideChooser picks which operand's out-of-range elements get scanned:
// the one with fewer of them. Every common element outside [loVal, hiVal)
// lives in both arrays, so scanning either side finds them all.
func outsideChooser(a, b Set, loVal, hiVal uint64) (scan, probe Set) {
	ah, at := outsideBounds(a, loVal, hiVal)
	bh, bt := outsideBounds(b, loVal, hiVal)
	if ah+(len(a.arr)-at) <= bh+(len(b.arr)-bt) {
		return a, b
	}
	return b, a
}

// outsideBounds returns the array indexes delimiting the elements below
// (arr[:head]) and at-or-above (arr[tail:]) the value range [loVal, hiVal).
func outsideBounds(s Set, loVal, hiVal uint64) (head, tail int) {
	head = searchFrom64(s.arr, 0, loVal)
	tail = searchFrom64(s.arr, head, hiVal)
	return head, tail
}

// searchFrom64 is searchFrom against a uint64 threshold (which may be 2³²,
// one past the top of the universe).
func searchFrom64(s []uint32, lo int, x uint64) int {
	hi := len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if uint64(s[mid]) < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intersectProbe iterates the shorter operand a over the candidate value
// range [lo, hi], testing each element against b — O(1) inside b's window,
// binary search with a monotone resume cursor outside it.
func intersectProbe(a, b Set, lo, hi uint32, dst []uint32) []uint32 {
	dst = dst[:0]
	cur := 0
	for _, x := range a.arr[searchFrom(a.arr, 0, lo):] {
		if x > hi {
			break
		}
		if b.words != nil && b.inWindow(x) {
			if b.words[(x>>6)-b.base]&(1<<(x&63)) != 0 {
				dst = append(dst, x)
			}
			continue
		}
		k := searchFrom(b.arr, cur, x)
		if k == len(b.arr) {
			break
		}
		if b.arr[k] == x {
			dst = append(dst, x)
			cur = k + 1
		} else {
			cur = k
		}
	}
	return dst
}

func intersectProbeCount(a, b Set, lo, hi uint32) int {
	n := 0
	cur := 0
	for _, x := range a.arr[searchFrom(a.arr, 0, lo):] {
		if x > hi {
			break
		}
		if b.words != nil && b.inWindow(x) {
			if b.words[(x>>6)-b.base]&(1<<(x&63)) != 0 {
				n++
			}
			continue
		}
		k := searchFrom(b.arr, cur, x)
		if k == len(b.arr) {
			break
		}
		if b.arr[k] == x {
			n++
			cur = k + 1
		} else {
			cur = k
		}
	}
	return n
}

func probeIntersects(a, b Set, lo, hi uint32) bool {
	cur := 0
	for _, x := range a.arr[searchFrom(a.arr, 0, lo):] {
		if x > hi {
			return false
		}
		if b.words != nil && b.inWindow(x) {
			if b.words[(x>>6)-b.base]&(1<<(x&63)) != 0 {
				return true
			}
			continue
		}
		k := searchFrom(b.arr, cur, x)
		if k == len(b.arr) {
			return false
		}
		if b.arr[k] == x {
			return true
		}
		cur = k
	}
	return false
}

// sortSetsByLen orders sets ascending by cardinality in place (insertion
// sort: operand counts are pattern-arity small). Rarest-first ordering makes
// the smallest set the seed of the k-way intersection, bounding every later
// probe pass by its length.
//
//ohmlint:hotpath
func sortSetsByLen(sets []Set) {
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

// IntersectKAdaptive intersects every set into dst: operands are ordered by
// ascending cardinality, the rarest seeds the result, and each of its
// elements is probed through the remaining operands (window test or resumed
// binary search). The scan short-circuits the moment the candidate value
// range empties or any operand is exhausted — no intermediate result is ever
// materialized. sets is reordered in place. For k = 2 it defers to the
// binary adaptive kernel (which additionally exploits the SWAR path).
//
// Operand counts above maxK (32) fall back to progressive pairwise
// intersection — impossible for mining plans, whose arity is bounded by the
// uint32 subset masks.
//
//ohmlint:hotpath
func IntersectKAdaptive(sets []Set, dst, tmp []uint32) (res, spare []uint32) {
	sortSetsByLen(sets)
	switch len(sets) {
	case 0:
		return dst[:0], tmp
	case 1:
		return append(dst[:0], sets[0].arr...), tmp
	case 2:
		return IntersectSetsAdaptive(sets[0], sets[1], dst), tmp
	}
	if len(sets) > maxK {
		return intersectKPairwise(IntersectFast, sets, dst, tmp)
	}
	dst = dst[:0]
	seed := sets[0]
	if seed.Len() == 0 {
		return dst, tmp
	}
	lo, hi := seed.Min(), seed.Max()
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
scan:
	for _, x := range seed.arr[searchFrom(seed.arr, 0, lo):] {
		if x > hi {
			break
		}
		for i := 1; i < len(sets); i++ {
			s := &sets[i]
			if s.words != nil && s.inWindow(x) {
				if s.words[(x>>6)-s.base]&(1<<(x&63)) == 0 {
					continue scan
				}
				continue
			}
			k := searchFrom(s.arr, cur[i], x)
			if k == len(s.arr) {
				break scan // operand exhausted: no later x can match
			}
			cur[i] = k
			if s.arr[k] != x {
				continue scan
			}
			cur[i] = k + 1
		}
		dst = append(dst, x)
	}
	return dst, tmp
}

// IntersectCountKAdaptive is the demoted form of IntersectKAdaptive for
// count-only consumers: same rarest-first
// probe order and short-circuits, no materialization at all.
//
//ohmlint:hotpath
func IntersectCountKAdaptive(sets []Set, dst, tmp []uint32) (n int, d, t []uint32) {
	sortSetsByLen(sets)
	switch len(sets) {
	case 0:
		return 0, dst, tmp
	case 1:
		return len(sets[0].arr), dst, tmp
	case 2:
		return IntersectCountSetsAdaptive(sets[0], sets[1]), dst, tmp
	}
	if len(sets) > maxK {
		return intersectCountKPairwise(IntersectFast, IntersectCountFast, sets, dst, tmp)
	}
	seed := sets[0]
	if seed.Len() == 0 {
		return 0, dst, tmp
	}
	lo, hi := seed.Min(), seed.Max()
	for i := 1; i < len(sets); i++ {
		if m := sets[i].Min(); m > lo {
			lo = m
		}
		if m := sets[i].Max(); m < hi {
			hi = m
		}
	}
	if lo > hi {
		return 0, dst, tmp
	}
	var cur [maxK]int
scan:
	for _, x := range seed.arr[searchFrom(seed.arr, 0, lo):] {
		if x > hi {
			break
		}
		for i := 1; i < len(sets); i++ {
			s := &sets[i]
			if s.words != nil && s.inWindow(x) {
				if s.words[(x>>6)-s.base]&(1<<(x&63)) == 0 {
					continue scan
				}
				continue
			}
			k := searchFrom(s.arr, cur[i], x)
			if k == len(s.arr) {
				break scan
			}
			cur[i] = k
			if s.arr[k] != x {
				continue scan
			}
			cur[i] = k + 1
		}
		n++
	}
	return n, dst, tmp
}

// intersectKPairwise is the progressive k-way fold the Scalar and Fast
// families use: operands ordered ascending, the running accumulator
// ping-pongs between dst and tmp, and the fold short-circuits the moment the
// accumulator empties. The returned spare buffer is whichever of dst/tmp the
// result did not land in, so callers can retain both backings across calls.
//
//ohmlint:hotpath
func intersectKPairwise(ints func(a, b, dst []uint32) []uint32, sets []Set, dst, tmp []uint32) (res, spare []uint32) {
	sortSetsByLen(sets)
	if len(sets) == 0 {
		return dst[:0], tmp
	}
	acc := append(dst[:0], sets[0].arr...)
	for i := 1; i < len(sets); i++ {
		out := ints(acc, sets[i].arr, tmp[:0])
		tmp, acc = acc, out
		if len(acc) == 0 {
			break
		}
	}
	return acc, tmp
}

// intersectCountKPairwise folds like intersectKPairwise but demotes the last
// step to a pure count.
//
//ohmlint:hotpath
func intersectCountKPairwise(ints func(a, b, dst []uint32) []uint32, cnt func(a, b []uint32) int, sets []Set, dst, tmp []uint32) (n int, d, t []uint32) {
	sortSetsByLen(sets)
	switch len(sets) {
	case 0:
		return 0, dst, tmp
	case 1:
		return len(sets[0].arr), dst, tmp
	case 2:
		return cnt(sets[0].arr, sets[1].arr), dst, tmp
	}
	acc := append(dst[:0], sets[0].arr...)
	for i := 1; i < len(sets)-1; i++ {
		out := ints(acc, sets[i].arr, tmp[:0])
		tmp, acc = acc, out
		if len(acc) == 0 {
			return 0, acc, tmp
		}
	}
	return cnt(acc, sets[len(sets)-1].arr), acc, tmp
}
