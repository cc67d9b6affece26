package pattern

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Shape is an isomorphism class of unlabeled connected patterns with K
// hyperedges, identified by its canonical Venn region vector: Regions[mask]
// (mask ∈ [1, 2^K)) is the number of pattern vertices lying in exactly the
// hyperedges of mask. By Theorem 1, two patterns are isomorphic iff their
// region vectors agree up to a permutation of hyperedge bits, so the
// bit-permutation-minimal vector is a canonical form — shapes double as the
// canonical labels that motif counting needs.
type Shape struct {
	K       int
	Regions []int // length 2^K, index 0 unused; canonical under bit permutation
}

// Key returns a compact string identity for map keys.
func (s Shape) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", s.K)
	for mask := 1; mask < len(s.Regions); mask++ {
		if mask > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", s.Regions[mask])
	}
	return b.String()
}

// NumVertices returns the total vertex count of the shape.
func (s Shape) NumVertices() int {
	total := 0
	for mask := 1; mask < len(s.Regions); mask++ {
		total += s.Regions[mask]
	}
	return total
}

// String renders the region vector with set expressions.
func (s Shape) String() string {
	var parts []string
	for mask := 1; mask < len(s.Regions); mask++ {
		if s.Regions[mask] > 0 {
			parts = append(parts, fmt.Sprintf("%0*b:%d", s.K, mask, s.Regions[mask]))
		}
	}
	return "shape{" + strings.Join(parts, " ") + "}"
}

// Pattern realizes the shape as a concrete pattern laid out by regionEdges.
func (s Shape) Pattern() (*Pattern, error) {
	return New(regionEdges(s.K, func(mask int) int { return s.Regions[mask] }), nil)
}

// regionEdges lays out count(mask) vertices per region, region by region in
// ascending mask order; hyperedge i collects the vertices of every region
// whose mask contains bit i.
func regionEdges(k int, count func(mask int) int) [][]uint32 {
	edges := make([][]uint32, k)
	next := uint32(0)
	for mask := 1; mask < 1<<k; mask++ {
		for n := 0; n < count(mask); n++ {
			for i := 0; i < k; i++ {
				if mask&(1<<i) != 0 {
					edges[i] = append(edges[i], next)
				}
			}
			next++
		}
	}
	return edges
}

// ShapeOf returns the canonical shape of an unlabeled pattern.
func ShapeOf(p *Pattern) Shape {
	return canonicalShape(&Pattern{edges: p.edges, numVertices: p.numVertices})
}

// canonicalShape returns the region vector of p's canonical hyperedge order
// (for up to exactMaxEdges hyperedges, the lexicographically minimal one).
func canonicalShape(p *Pattern) Shape {
	s := newSearch(p)
	s.bind(0, true)
	canon := make([]int, 1<<s.k)
	for mask := 1; mask < 1<<s.k; mask++ {
		canon[mask] = int(s.best[mask-1])
	}
	return Shape{K: s.k, Regions: canon}
}

// EnumerateShapes lists every connected K-hyperedge shape whose regions
// each hold at most maxRegionSize vertices and whose total vertex count is
// at most maxVertices, one representative per isomorphism class, in
// deterministic order. K is capped at 4 (the vector space grows as
// (maxRegionSize+1)^(2^K−1)).
func EnumerateShapes(k, maxRegionSize, maxVertices int) ([]Shape, error) {
	if k < 1 || k > 4 {
		return nil, fmt.Errorf("pattern: EnumerateShapes supports 1..4 hyperedges, got %d", k)
	}
	if maxRegionSize < 1 || maxVertices < 1 {
		return nil, fmt.Errorf("pattern: non-positive bounds")
	}
	n := 1 << k
	regions := make([]int, n)
	seen := map[string]bool{}
	var out []Shape

	var rec func(mask, total int)
	rec = func(mask, total int) {
		if mask == n {
			if !shapeValid(k, regions) {
				return
			}
			s := canonicalShape(&Pattern{edges: regionEdges(k, func(m int) int { return regions[m] }), numVertices: total})
			key := s.Key()
			if !seen[key] {
				seen[key] = true
				out = append(out, s)
			}
			return
		}
		for sz := 0; sz <= maxRegionSize && total+sz <= maxVertices; sz++ {
			regions[mask] = sz
			rec(mask+1, total+sz)
		}
		regions[mask] = 0
	}
	rec(1, 0)

	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}

// shapeValid demands non-empty hyperedges and overlap-connectivity.
func shapeValid(k int, regions []int) bool {
	// Edge sizes.
	for i := 0; i < k; i++ {
		size := 0
		for mask := 1; mask < 1<<k; mask++ {
			if mask&(1<<i) != 0 {
				size += regions[mask]
			}
		}
		if size == 0 {
			return false
		}
	}
	if k == 1 {
		return true
	}
	// Distinct hyperedges: some populated region must separate each pair.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			distinct := false
			for mask := 1; mask < 1<<k; mask++ {
				if regions[mask] > 0 && (mask&(1<<i) != 0) != (mask&(1<<j) != 0) {
					distinct = true
					break
				}
			}
			if !distinct {
				return false
			}
		}
	}
	// Connectivity over pairwise overlaps.
	overlap := func(i, j int) bool {
		for mask := 1; mask < 1<<k; mask++ {
			if mask&(1<<i) != 0 && mask&(1<<j) != 0 && regions[mask] > 0 {
				return true
			}
		}
		return false
	}
	visited := uint32(1)
	queue := []int{0}
	for len(queue) > 0 {
		cur := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for j := 0; j < k; j++ {
			if visited&(1<<j) == 0 && overlap(cur, j) {
				visited |= 1 << j
				queue = append(queue, j)
			}
		}
	}
	return bits.OnesCount32(visited) == k
}
