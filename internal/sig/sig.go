// Package sig computes overlap signatures of hyperedge sequences.
//
// For an ordered sequence of hyperedges E = (e_0 .. e_{m-1}) the overlap
// signature assigns to every non-empty subset S ⊆ {0..m-1} the overlap size
//
//	sig[S] = |∩_{i∈S} e_i|,
//
// with subsets encoded as bitmasks. By the paper's Theorem 1 (via the
// inclusion–exclusion principle), two hyperedge sequences are isomorphic as
// subhypergraphs exactly when their signatures agree: the Venn-region sizes
// of Sec. 3 are the Möbius transform of the signature, so equal signatures
// ⇔ equal region sizes ⇔ a vertex bijection inducing a hyperedge bijection.
//
// The signature is the single correctness object shared by the compiler (it
// derives the execution plan's size targets from it), the brute-force
// reference miner with its automorphism oracle, and the Venn model.
package sig

import (
	"fmt"
	"math/bits"
	"sort"

	"ohminer/internal/intset"
)

// MaxEdges bounds the number of hyperedges per pattern; signatures take
// O(2^m) space and the evaluation patterns have m ≤ 6.
const MaxEdges = 14

// Signature holds per-subset overlap sizes for an m-edge sequence.
type Signature struct {
	M     int   // number of hyperedges
	Sizes []int // indexed by mask ∈ [1, 1<<M); Sizes[0] unused (0)
}

// Compute builds the signature of the given hyperedge vertex sets. Each set
// must be strictly increasing. Sets for every mask are derived incrementally
// (∩S = ∩(S \ lowbit) ∩ e_lowbit) so each subset costs one intersection.
func Compute(edges [][]uint32) (Signature, error) {
	m := len(edges)
	if m == 0 || m > MaxEdges {
		return Signature{}, fmt.Errorf("sig: %d hyperedges (want 1..%d)", m, MaxEdges)
	}
	for i, e := range edges {
		if !intset.SortedUnique(e) {
			return Signature{}, fmt.Errorf("sig: hyperedge %d is not a sorted set", i)
		}
	}
	sets := make([][]uint32, 1<<m)
	s := Signature{M: m, Sizes: make([]int, 1<<m)}
	for i := 0; i < m; i++ {
		sets[1<<i] = edges[i]
		s.Sizes[1<<i] = len(edges[i])
	}
	for mask := 1; mask < 1<<m; mask++ {
		if bits.OnesCount(uint(mask)) < 2 {
			continue
		}
		low := mask & -mask
		rest := mask &^ low
		if len(sets[rest]) == 0 {
			// Propagated emptiness; sets[mask] stays nil, size 0.
			continue
		}
		sets[mask] = intset.Intersect(sets[rest], sets[low], nil)
		s.Sizes[mask] = len(sets[mask])
	}
	return s, nil
}

// MustCompute is Compute that panics on error (test/example literals).
func MustCompute(edges [][]uint32) Signature {
	s, err := Compute(edges)
	if err != nil {
		panic(err)
	}
	return s
}

// Size returns sig[mask].
func (s Signature) Size(mask uint32) int { return s.Sizes[mask] }

// Equal reports whether two signatures are identical.
func (s Signature) Equal(o Signature) bool {
	if s.M != o.M {
		return false
	}
	for i := 1; i < len(s.Sizes); i++ {
		if s.Sizes[i] != o.Sizes[i] {
			return false
		}
	}
	return true
}

// RegionSizes returns the Venn-region sizes of Sec. 3: region[mask] is the
// number of vertices that belong to exactly the hyperedges in mask. It is
// the superset Möbius transform of the signature:
//
//	region[S] = Σ_{T ⊇ S} (-1)^{|T|-|S|} sig[T]   (IEP, Equation (1))
func (s Signature) RegionSizes() []int {
	n := len(s.Sizes)
	region := make([]int, n)
	copy(region, s.Sizes)
	// Standard subset-sum inversion over the superset lattice: subtract the
	// contribution of each bit dimension.
	for b := 0; b < s.M; b++ {
		for mask := n - 1; mask >= 1; mask-- {
			if mask&(1<<b) == 0 {
				region[mask] -= region[mask|(1<<b)]
			}
		}
	}
	return region
}

// LabelCount pairs a vertex label with a count.
type LabelCount struct {
	Label uint32
	Count int
}

// LabelSignature extends the overlap signature with per-label counts: for
// every subset mask it records the multiset of labels occurring in the
// overlap, sorted by label. Labeled HPM (Sec. 4.3.1) compares these instead
// of bare sizes.
type LabelSignature struct {
	Signature
	Counts [][]LabelCount // indexed by mask; sorted by Label
}

// ComputeLabeled builds the labeled signature; labelOf maps vertex → label.
func ComputeLabeled(edges [][]uint32, labelOf func(uint32) uint32) (LabelSignature, error) {
	base, err := Compute(edges)
	if err != nil {
		return LabelSignature{}, err
	}
	ls := LabelSignature{Signature: base, Counts: make([][]LabelCount, len(base.Sizes))}
	// Recompute the sets (cheap for pattern-sized inputs) and histogram.
	sets := make([][]uint32, 1<<base.M)
	for i := 0; i < base.M; i++ {
		sets[1<<i] = edges[i]
	}
	for mask := 1; mask < 1<<base.M; mask++ {
		if bits.OnesCount(uint(mask)) >= 2 {
			low := mask & -mask
			rest := mask &^ low
			sets[mask] = intset.Intersect(sets[rest], sets[low], nil)
		}
		ls.Counts[mask] = histogram(sets[mask], labelOf)
	}
	return ls, nil
}

func histogram(verts []uint32, labelOf func(uint32) uint32) []LabelCount {
	if len(verts) == 0 {
		return nil
	}
	counts := map[uint32]int{}
	for _, v := range verts {
		counts[labelOf(v)]++
	}
	out := make([]LabelCount, 0, len(counts))
	for l, c := range counts {
		out = append(out, LabelCount{Label: l, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// HistogramMatches reports whether the label histogram of verts — labels[v]
// for every v — equals want. scratch is a per-label counter slice, all zero
// on entry and restored to zero on return, so a mining worker checks
// candidate after candidate without allocating.
//
//ohmlint:hotpath
func HistogramMatches(labels, verts []uint32, want []LabelCount, scratch []int) bool {
	for _, v := range verts {
		scratch[labels[v]]++
	}
	ok := true
	seen := 0
	for _, lc := range want {
		if scratch[lc.Label] != lc.Count {
			ok = false
		}
		seen += lc.Count
	}
	if seen != len(verts) {
		ok = false
	}
	for _, v := range verts {
		scratch[labels[v]] = 0
	}
	return ok
}
