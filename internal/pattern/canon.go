package pattern

// Canonical forms, automorphisms and symmetry-breaking restrictions, all
// from one search over hyperedge orders (search).
//
// The canonical key renders the admitted hyperedge order (exactMaxEdges) with
// the smallest (region vector, region labels, hyperedge labels) string; two
// patterns are isomorphic iff their keys are equal (Theorem 1 with per-region
// label multisets), so a query cache keyed on it deduplicates every way of
// writing a pattern. An automorphism is an order that renders like the
// identity; the search finds generators of the group (McKay & Piperno), and
// the restrictions follow GraphZero's stabilizer chain: every other member q
// of position i's orbit under the automorphisms fixing 0…i−1 gets "data-edge
// ID at i < ID at q", so an engine enforcing them enumerates exactly one
// ordered tuple — the lexicographically smallest — per unordered embedding.

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"ohminer/internal/sig"
)

// The search keeps hyperedge sets in uint32 masks; this fails the build if
// the pattern bound ever outgrows them.
const _ = uint(32 - sig.MaxEdges)

// canonical runs the canonical search once per pattern.
func (p *Pattern) canonical() {
	p.canonOnce.Do(func() {
		s := newSearch(p)
		s.bind(0, true)
		key := make([]byte, 0, 8+4*(len(s.best)+s.k))
		key = binary.BigEndian.AppendUint32(key, uint32(s.k))
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
		for _, e := range s.bestPerm {
			key = binary.BigEndian.AppendUint32(key, s.p.edgeLabel(e))
		}
		p.canonKey, p.canonPerm = string(key), s.bestPerm
	})
}

// CanonicalKey returns p's canonical key and ok=true: isomorphic patterns get
// equal keys, non-isomorphic ones different keys.
func CanonicalKey(p *Pattern) (string, bool) {
	p.canonical()
	return p.canonKey, true
}

// Canonical returns the representative of p's isomorphism class and ok=true:
// hyperedges in the key's order, vertices numbered region by region
// (regionEdges), then by label; isomorphic patterns get the same one.
func Canonical(p *Pattern) (*Pattern, bool) {
	p.canonical()
	// The representative is isomorphic to p, so this cannot fail for a
	// valid pattern, but fail safe to literal identity.
	if cp, err := NewEdgeLabeled(newSearch(p).realize(p.canonPerm)); err == nil {
		return cp, true
	}
	return p, false
}

// symmetry runs the automorphism search once per pattern. |Aut| is the product
// of the basic orbits, i's being its orbit under the generators fixing 0…i−1.
func (p *Pattern) symmetry() *Pattern {
	p.symOnce.Do(func() {
		s := newSearch(p)
		s.aut, s.idColor = true, make([]int, s.k)
		for j := range s.k {
			s.chunk(j, j)
			s.bestPerm[j], s.idColor[j] = j, -1
		}
		s.best, s.cur = s.cur, s.best
		s.bind(0, false)
		p.aut, p.restrict = 1, make([][]int, s.k)
		for i := range s.k {
			n := 1
			s.orbits(s.g, s.bestPerm[:i])
			for q := i + 1; q < s.k; q++ {
				if s.g[q] == i {
					p.restrict[q] = append(p.restrict[q], i)
					n++
				}
			}
			p.aut *= n
		}
		p.orbitOf = make([]int, s.k)
		s.orbits(p.orbitOf, nil)
	})
	return p
}

// Automorphisms counts the hyperedge permutations that map the pattern onto
// itself (Theorem 1 with labels). An unrestricted ordered miner finds every
// unordered embedding once per automorphism, so unique = ordered /
// Automorphisms() for complete runs.
func (p *Pattern) Automorphisms() int { return p.symmetry().aut }

// SymmetryRestrictions returns, per hyperedge position t, the earlier
// positions j (ascending) whose bound data-hyperedge ID must stay below t's:
// of each ordered tuple's |Aut| reorderings exactly the lexicographically
// smallest satisfies them all. The lists are the caller's to keep.
func (p *Pattern) SymmetryRestrictions() [][]int {
	out := make([][]int, len(p.edges))
	for t, rs := range p.symmetry().restrict {
		out[t] = slices.Clone(rs)
	}
	return out
}

// Orbits partitions the hyperedges into orbits under the automorphism group
// and returns each orbit's smallest member, ascending, with the orbit's size.
func (p *Pattern) Orbits() (reps, sizes []int) {
	n := make([]int, len(p.edges))
	for _, r := range p.symmetry().orbitOf {
		n[r]++
	}
	for e, c := range n {
		if c > 0 {
			reps, sizes = append(reps, e), append(sizes, c)
		}
	}
	return reps, sizes
}

// exactMaxEdges is the most hyperedges whose key is the minimum over all K!
// orders. Beyond it prefixes tie with no automorphism to explain them (a
// 14-hyperedge path has millions), so each position only admits the first
// cell of the refinement, an isomorphism-invariant subset of the orders.
const exactMaxEdges = 6

// search binds hyperedge positions in turn. The rendering is, per permuted
// region mask in ascending order, the region's vertex count and sorted
// labels, then the hyperedge labels in order; the chunk for masks in [2^j,
// 2^(j+1)) depends only on positions 0…j, so prefixes rendering above best's
// are cut and ties kept. An order tying with bestPerm yields the automorphism
// mapping one onto the other, and the search resumes where the two part (the
// rest is the image of a searched subtree); a child in the orbit of a tried
// one under the generators fixing the prefix is skipped alike.
type search struct {
	p       *Pattern
	k       int
	counts  []uint32   // vertices per region, by original mask
	labels  [][]uint32 // sorted vertex labels per region; nil when unlabeled
	regions []uint32   // the original masks of the non-empty regions
	aut     bool       // find the orders rendering like the identity, not the minimum

	orig     []uint32 // orig[m]: original mask of permuted mask m, for bound positions
	perm     []int    // perm[i]: original hyperedge at position i
	used     uint32
	cur      []uint32 // rendering of the bound positions
	best     []uint32 // rendering of bestPerm
	bestPerm []int
	replaced int     // times best was replaced
	gens     [][]int // automorphisms found: gens[g][e] is e's image
	jump     int     // after a tie, the position whose frame resumes; else -1
	idColor  []int   // aut, refining: the color of hyperedge j given prefix 0…j−1
	g        []int   // mapsBest's candidate
	reps     []int   // reps[j*k:][:k]: orbit representatives of position j's children
}

// newSearch counts p's vertices and sorts their labels per original region
// mask (bit i ⇔ vertex ∈ hyperedge i); an isolated vertex has mask 0.
func newSearch(p *Pattern) *search {
	k := len(p.edges)
	words, ints := make([]uint32, 2<<k), make([]int, (3+k)*k) // one allocation each
	s := &search{p: p, k: k, counts: words[:1<<k], orig: words[1<<k:], regions: make([]uint32, 0, p.numVertices),
		perm: ints[:k], bestPerm: ints[k : 2*k], g: ints[2*k : 3*k], reps: ints[3*k:], jump: -1}
	if p.labels != nil {
		s.labels = make([][]uint32, 1<<k)
	}
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
	n := 1<<k - 1 // the rendering's length
	for m := uint32(1); m < 1<<k; m++ {
		if s.counts[m] > 0 {
			s.regions = append(s.regions, m)
			if s.labels != nil {
				slices.Sort(s.labels[m])
				n += len(s.labels[m])
			}
		}
	}
	buf := make([]uint32, 2*n)
	s.cur, s.best = buf[:0:n], buf[n:n]
	return s
}

// chunk binds hyperedge e at position j in orig and renders it onto cur.
func (s *search) chunk(j, e int) {
	lo := 1 << j
	for m := lo; m < 2*lo; m++ {
		o := s.orig[m-lo] | 1<<e
		s.orig[m] = o
		s.cur = append(s.cur, s.counts[o])
		if s.labels != nil {
			s.cur = append(s.cur, s.labels[o]...)
		}
	}
}

// bind tries the unused hyperedges at position j; less reports that the order
// so far renders below best, or that there is no best yet (bind(0, true)).
func (s *search) bind(j int, less bool) {
	if j == s.k {
		s.leaf(less)
		return
	}
	start := len(s.cur)
	var rep, col []int
	ngens, target := -1, j // target: the color of the cell position j binds from
	if s.k > exactMaxEdges {
		col = s.refine(s.perm[:j])
		if s.aut {
			if s.idColor[j] < 0 { // on the identity path, entered first
				s.idColor[j] = col[j]
			}
			target = s.idColor[j]
		}
	}
	var tried uint32
children:
	for e := 0; e < s.k; e++ {
		bit := uint32(1) << e
		if s.used&bit != 0 || col != nil && col[e] != target {
			continue
		}
		if len(s.gens) > 0 {
			if ngens != len(s.gens) {
				ngens, rep = len(s.gens), s.reps[j*s.k:(j+1)*s.k]
				s.orbits(rep, s.perm[:j])
			}
			for t := range e {
				if tried&(1<<t) != 0 && rep[t] == rep[e] {
					continue children // its subtree is the image of a tried one's
				}
			}
		}
		tried |= bit
		s.cur = s.cur[:start]
		s.chunk(j, e)
		c := 0 // this chunk against best's
		if !less {
			c = slices.Compare(s.cur[start:], s.best[start:len(s.cur)])
		}
		if c > 0 || c < 0 && s.aut {
			continue
		}
		s.perm[j] = e
		// Once the pattern has shown an automorphism, a tied prefix is first
		// tried as the image of best's under another one.
		if c < 0 || less || len(s.gens) == 0 || !s.mapsBest(j) {
			s.used |= bit
			n := s.replaced
			s.bind(j+1, less || c < 0)
			s.used &^= bit
			if s.replaced != n {
				less = false // best now shares this prefix
			}
		}
		if s.jump >= 0 {
			if s.jump < j {
				break
			}
			s.jump = -1
		}
	}
	s.cur = s.cur[:start]
}

// leaf takes a complete order whose regions render no higher than best's:
// with lower hyperedge labels it is the new best, with equal ones a tie.
func (s *search) leaf(less bool) {
	c := 0
	for i := 0; i < s.k && c == 0 && !less; i++ {
		c = int(s.p.edgeLabel(s.perm[i])) - int(s.p.edgeLabel(s.bestPerm[i]))
	}
	switch {
	case less || c < 0 && !s.aut:
		s.best = append(s.best[:0], s.cur...)
		copy(s.bestPerm, s.perm)
		s.replaced++
	case c == 0:
		s.mapsBest(s.k - 1)
	}
}

// mapsBest reports whether the map taking bestPerm[0…j] onto the tied prefix
// perm[0…j], fixing the hyperedges outside both and pairing the rest in
// ascending order, is an automorphism, and if so records it and where to resume.
func (s *search) mapsBest(j int) bool {
	d := 0
	for d <= j && s.perm[d] == s.bestPerm[d] {
		d++
	}
	if d > j {
		return false
	}
	g, dom, img := s.g, uint32(0), uint32(0)
	for i, e := range s.perm[:j+1] {
		g[s.bestPerm[i]], dom, img = e, dom|1<<s.bestPerm[i], img|1<<e
	}
	for e := range g {
		switch {
		case dom&(1<<e) != 0:
		case img&(1<<e) == 0:
			g[e] = e
		default:
			g[e] = bits.TrailingZeros32(dom &^ img)
			img |= 1 << g[e]
		}
	}
	// g keeps the rendering iff it maps every hyperedge onto one of equal
	// label and every non-empty region onto one of equal count and labels
	// (the non-empty regions then map onto each other).
	for e, x := range g {
		if s.p.edgeLabel(e) != s.p.edgeLabel(x) {
			return false
		}
	}
	for _, o := range s.regions {
		img := uint32(0)
		for b := o; b != 0; b &= b - 1 {
			img |= 1 << g[bits.TrailingZeros32(b)]
		}
		if s.counts[img] != s.counts[o] || s.labels != nil && !slices.Equal(s.labels[img], s.labels[o]) {
			return false
		}
	}
	s.gens = append(s.gens, slices.Clone(g))
	s.jump = d
	return true
}

// refine colors the hyperedges given the bound prefix (1-dimensional
// Weisfeiler–Leman): a prefix hyperedge gets its position, the rest are split
// round by round by their labels and their regions' colors (vertex count,
// hyperedge colors). Colors rank sorted signatures, so an isomorphism mapping
// one prefix onto another keeps them; the unbound ones start at len(prefix).
func (s *search) refine(prefix []int) []int {
	col := make([]int, s.k)
	for e := range col {
		col[e] = len(prefix)
	}
	for i, e := range prefix {
		col[e] = i
	}
	for classes := len(prefix) + 1; ; {
		rsig := make([][]uint32, len(s.regions))
		for r, o := range s.regions {
			rsig[r] = []uint32{s.counts[o]}
			for b := o; b != 0; b &= b - 1 {
				rsig[r] = append(rsig[r], uint32(col[bits.TrailingZeros32(b)]))
			}
			slices.Sort(rsig[r][1:])
		}
		rcol, _ := rank(rsig)
		esig := make([][]uint32, s.k)
		for e := range esig {
			esig[e] = []uint32{uint32(col[e]), s.p.edgeLabel(e)}
			for r, o := range s.regions {
				if o&(1<<e) != 0 {
					esig[e] = append(esig[e], uint32(rcol[r]))
				}
			}
			slices.Sort(esig[e][2:])
		}
		next, n := rank(esig)
		if n == classes {
			return col
		}
		col, classes = next, n
	}
}

// rank numbers the distinct signatures in ascending order and returns each
// signature's number and how many there are.
func rank(sigs [][]uint32) ([]int, int) {
	sorted := slices.Clone(sigs)
	slices.SortFunc(sorted, slices.Compare)
	sorted = slices.CompactFunc(sorted, slices.Equal)
	out := make([]int, len(sigs))
	for i, sg := range sigs {
		out[i], _ = slices.BinarySearchFunc(sorted, sg, slices.Compare)
	}
	return out, len(sorted)
}

// orbits sets rep[e] to the smallest hyperedge in e's orbit under the
// generators found so far that fix every hyperedge in fixed.
func (s *search) orbits(rep, fixed []int) {
	for e := range rep {
		rep[e] = e
	}
	root := func(e int) int {
		for rep[e] != e {
			e = rep[e]
		}
		return e
	}
	for _, g := range s.gens {
		if !slices.ContainsFunc(fixed, func(f int) bool { return g[f] != f }) {
			for e, ge := range g {
				a, b := root(e), root(ge)
				rep[max(a, b)] = min(a, b)
			}
		}
	}
	for e := range rep {
		rep[e] = rep[rep[e]] // parents are smaller, so already flattened
	}
}

// realize lays out the canonical representative of the order perm.
func (s *search) realize(perm []int) (edges [][]uint32, labels, edgeLabels []uint32) {
	for j, e := range perm {
		s.chunk(j, e)
	}
	edges = regionEdges(s.k, func(m int) int { return int(s.counts[s.orig[m]]) })
	if s.labels != nil {
		labels = []uint32{}
		for m := 1; m < 1<<s.k; m++ {
			labels = append(labels, s.labels[s.orig[m]]...)
		}
	}
	if s.p.edgeLabels != nil {
		edgeLabels = make([]uint32, s.k)
		for i, e := range perm {
			edgeLabels[i] = s.p.edgeLabels[e]
		}
	}
	return edges, labels, edgeLabels
}
