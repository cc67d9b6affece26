package pattern

// Canonical forms and symmetry-breaking restrictions.
//
// Canonicalization maps every member of an isomorphism class of patterns to
// one representative: hyperedges are permuted to minimize the rendered
// (region-vector, region-labels, edge-labels) byte string, and vertices are
// renamed region by region in mask order — the same realization ShapeOf's
// canonical region vector produces for unlabeled patterns. Two patterns are
// isomorphic iff their canonical keys are equal (Theorem 1 extended with
// per-region label multisets), so a query cache keyed on the canonical form
// deduplicates every way of writing the same pattern. One branch-and-bound
// search over hyperedge positions (canonSearch) finds the minimum for
// patterns and shapes alike.
//
// Symmetry-breaking restrictions are the GraphZero-style ordering
// constraints derived from the automorphism group: for each non-trivial
// orbit of matching-order positions a chain of "data-edge ID at position i <
// ID at position j" comparisons is emitted, so an engine that enforces them
// enumerates exactly one ordered tuple — the lexicographically smallest —
// per unordered embedding.

import (
	"encoding/binary"
	"slices"
	"sort"
)

// CanonMaxEdges bounds canonicalization; patterns with more hyperedges fall
// back to literal identity (Canonicalize returns ok=false). The rendering is
// 2^K entries long, and a symmetric pattern's orders all tie, so the search
// still visits K! leaves: a six-petal sunflower costs 0.17 ms, a sampled
// six-hyperedge pattern 6 µs (one Xeon core; EXPERIMENTS.md "Canonical
// keys"). The bound stays at 6 until automorphism pruning cuts tied subtrees.
const CanonMaxEdges = 6

// Canon is the outcome of one canonical search over a pattern: the class key
// and the hyperedge order that realizes the canonical representative.
type Canon struct {
	Key string
	s   *canonSearch
}

// Canonicalize runs the canonical search once and returns its key, or
// ok=false when the pattern exceeds CanonMaxEdges. Keys of isomorphic
// patterns are equal; keys of non-isomorphic patterns differ. The canonical
// representative is built only when Pattern is called.
func Canonicalize(p *Pattern) (Canon, bool) {
	k := len(p.edges)
	if k > CanonMaxEdges {
		return Canon{}, false
	}
	s := newCanonSearch(k, p.labels != nil, p.edgeLabels)
	// Region mask of every vertex (bit i ⇔ vertex ∈ hyperedge i). Vertex IDs
	// never referenced by an edge keep mask 0 and drop out of the canonical
	// form — they carry no structure.
	vmask := make([]uint32, p.numVertices)
	for i, e := range p.edges {
		for _, v := range e {
			vmask[v] |= 1 << uint(i)
		}
	}
	for v, m := range vmask {
		s.counts[m]++
		if s.labels != nil && m != 0 {
			s.labels[m] = append(s.labels[m], p.labels[v])
		}
	}
	for _, ls := range s.labels {
		slices.Sort(ls)
	}
	s.bind(0, true)

	key := make([]byte, 0, 8+4*len(s.best))
	key = binary.BigEndian.AppendUint32(key, uint32(k))
	flags := uint32(0)
	if p.labels != nil {
		flags |= 1
	}
	if p.edgeLabels != nil {
		flags |= 2
	}
	key = binary.BigEndian.AppendUint32(key, flags)
	for _, x := range s.best {
		key = binary.BigEndian.AppendUint32(key, x)
	}
	return Canon{Key: string(key), s: s}, true
}

// Pattern builds the canonical representative from the winning order, vertex
// IDs assigned region by region (regionEdges), within a region by label.
// Every order with the minimal rendering yields this same pattern.
func (c Canon) Pattern() (*Pattern, error) {
	edges, labels, edgeLabels := c.s.realize()
	return NewEdgeLabeled(edges, labels, edgeLabels)
}

// Canonical returns the canonical representative of p's isomorphism class
// and ok=true, or (p, false) when the pattern exceeds CanonMaxEdges. The
// representative is deterministic: every pattern isomorphic to p — same
// structure, same vertex-label multiset per overlap region, same hyperedge
// labels up to the permutation — canonicalizes to the identical pattern.
// For unlabeled patterns it coincides with ShapeOf(p)'s realization.
func Canonical(p *Pattern) (*Pattern, bool) {
	if c, ok := Canonicalize(p); ok {
		// Pattern cannot fail for valid inputs (the canonical form is
		// isomorphic to p), but fail safe to literal identity.
		if cp, err := c.Pattern(); err == nil {
			return cp, true
		}
	}
	return p, false
}

// CanonicalKey returns Canonicalize's key, or ("", false) beyond
// CanonMaxEdges.
func CanonicalKey(p *Pattern) (string, bool) {
	c, ok := Canonicalize(p)
	return c.Key, ok
}

// canonSearch finds the hyperedge order whose rendering is smallest. The
// rendering is, per permuted region mask in ascending order, the region's
// vertex count and then (labeled patterns) its sorted label multiset,
// followed by the hyperedge labels in order (0 when unlabeled). The chunk
// for masks in [2^j, 2^(j+1)) depends only on positions 0…j, so the search
// binds positions in turn and cuts a prefix whose rendering already exceeds
// the best one's; tied prefixes are kept, so the minimum is exact.
type canonSearch struct {
	k          int
	counts     []uint32   // vertices per region, by original mask
	labels     [][]uint32 // sorted vertex labels per region; nil when unlabeled
	edgeLabels []uint32   // nil when unlabeled

	orig     []uint32 // orig[m]: original mask of permuted mask m, for bound positions
	perm     []int    // perm[i]: original hyperedge at position i
	used     uint32
	cur      []uint32 // rendering of the bound positions
	best     []uint32 // smallest complete rendering found
	bestOrig []uint32 // orig of the order that rendered best
}

func newCanonSearch(k int, labeled bool, edgeLabels []uint32) *canonSearch {
	s := &canonSearch{k: k, counts: make([]uint32, 1<<k), edgeLabels: edgeLabels,
		orig: make([]uint32, 1<<k), perm: make([]int, k), bestOrig: make([]uint32, 1<<k)}
	if labeled {
		s.labels = make([][]uint32, 1<<k)
	}
	return s
}

// bind tries every unused hyperedge at position j. less reports that the
// rendering of positions before j is already below best's (or no best exists
// yet: bind(0, true) runs the search), so nothing under it can be cut. It
// returns whether best was replaced in this subtree; best then shares this
// node's prefix, which is no longer below it.
func (s *canonSearch) bind(j int, less bool) bool {
	start := len(s.cur)
	if j == s.k {
		for _, e := range s.perm {
			if s.edgeLabels != nil {
				s.cur = append(s.cur, s.edgeLabels[e])
			} else {
				s.cur = append(s.cur, 0)
			}
		}
		replace := less || slices.Compare(s.cur[start:], s.best[start:]) < 0
		if replace {
			s.best = append(s.best[:0], s.cur...)
			copy(s.bestOrig, s.orig)
		}
		s.cur = s.cur[:start]
		return replace
	}
	replaced := false
	lo := 1 << j
	for e := 0; e < s.k; e++ {
		bit := uint32(1) << e
		if s.used&bit != 0 {
			continue
		}
		s.cur = s.cur[:start]
		for m := lo; m < 2*lo; m++ {
			o := s.orig[m-lo] | bit
			s.orig[m] = o
			s.cur = append(s.cur, s.counts[o])
			if s.labels != nil {
				s.cur = append(s.cur, s.labels[o]...)
			}
		}
		c := -1 // this prefix against best's
		if !less {
			c = slices.Compare(s.cur[start:], s.best[start:len(s.cur)])
		}
		if c > 0 {
			continue
		}
		s.perm[j] = e
		s.used |= bit
		if s.bind(j+1, c < 0) {
			replaced, less = true, false
		}
		s.used &^= bit
	}
	s.cur = s.cur[:start]
	return replaced
}

// realize lays out the canonical representative of the winning order.
func (s *canonSearch) realize() (edges [][]uint32, labels, edgeLabels []uint32) {
	edges = regionEdges(s.k, func(m int) int { return int(s.counts[s.bestOrig[m]]) })
	if s.labels != nil {
		labels = []uint32{}
		for m := 1; m < 1<<s.k; m++ {
			labels = append(labels, s.labels[s.bestOrig[m]]...)
		}
	}
	if s.edgeLabels != nil {
		// The rendering ends with the winning order's hyperedge labels.
		edgeLabels = slices.Clone(s.best[len(s.best)-s.k:])
	}
	return edges, labels, edgeLabels
}

// SymmetryRestrictions returns per-position symmetry-breaking restrictions
// for the pattern's hyperedge positions: Restrict[t] lists earlier positions
// j whose bound data-hyperedge ID must stay strictly below position t's
// (c[j] < c[t]). The constraints are derived from the automorphism group by
// a stabilizer chain (GraphZero): of each ordered tuple's |Aut| automorphic
// reorderings exactly one — the lexicographically smallest — satisfies every
// restriction, so an engine enforcing them counts each unordered embedding
// exactly once. All lists are empty when the pattern is asymmetric.
func (p *Pattern) SymmetryRestrictions() [][]int {
	return restrictionsFromPerms(len(p.edges), p.AutomorphismPerms())
}

// restrictionsFromPerms derives the stabilizer-chain restrictions from an
// automorphism group given as explicit permutations over m positions. At
// each level the first position p1 moved by the remaining subgroup anchors
// its orbit: every other orbit member q (necessarily q > p1, since positions
// below p1 are fixed) receives the restriction c[p1] < c[q], checkable the
// moment position q binds; then the subgroup is cut to the stabilizer of p1
// and the chain repeats until only the identity remains.
func restrictionsFromPerms(m int, perms [][]int) [][]int {
	out := make([][]int, m)
	group := perms
	for len(group) > 1 {
		p1 := -1
	findMoved:
		for i := 0; i < m; i++ {
			for _, pm := range group {
				if pm[i] != i {
					p1 = i
					break findMoved
				}
			}
		}
		if p1 < 0 {
			break // duplicate identities; nothing left to break
		}
		inOrbit := make(map[int]bool, len(group))
		for _, pm := range group {
			inOrbit[pm[p1]] = true
		}
		for q := range inOrbit {
			if q != p1 {
				out[q] = append(out[q], p1)
			}
		}
		var stab [][]int
		for _, pm := range group {
			if pm[p1] == p1 {
				stab = append(stab, pm)
			}
		}
		group = stab
	}
	for t := range out {
		sort.Ints(out[t])
	}
	return out
}
