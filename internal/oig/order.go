package oig

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"ohminer/internal/pattern"
	"ohminer/internal/sig"
)

// This file chooses the matching order every plan is compiled in: the
// connected order of the pattern's hyperedges whose plan has the lowest
// estimated cost (DESIGN.md "Matching order by cost"). The estimate prices
// what the engine lays out for a plan and then does per binding, from one
// statistic of the data — the mean length of a (degree, overlap) group,
// Stats.GroupSum over the hyperedges of a degree — and from the pattern's own
// Venn regions. Without a store, flat statistics stand in, and the order
// follows from the pattern alone.
//
// Costs are float64, and every product is rounded on its own (float64(a*b))
// before it is added, so no platform fuses a multiply-add: a cluster
// coordinator and its workers choose the same order on the same store and
// compare plan fingerprints.

// Stats is what the order chooser reads of a data store (*dal.Store has both
// methods): the number of hyperedges of a degree, and Σ over them of the
// length of their neighbour group of degree nbr sharing ov vertices — every
// overlap size for ov < 0.
type Stats interface {
	NumEdgesWithDegree(deg int) int
	GroupSum(deg, nbr, ov int) uint64
}

// flatStats stands in for a store when there is none: every degree has
// flatEdges hyperedges and every group flatGroup members on average.
type flatStats struct{}

const (
	flatEdges = 1 << 10
	flatGroup = 1 << 4
)

func (flatStats) NumEdgesWithDegree(int) int  { return flatEdges }
func (flatStats) GroupSum(_, _, _ int) uint64 { return flatEdges * flatGroup }

// exhaustiveEdges is the pattern size up to which every connected order is
// priced, by branch and bound on the prefix cost; larger patterns are
// extended greedily by cost from each first hyperedge.
const exhaustiveEdges = 6

// The unit of cost is one probe: a hyperedge of a group looked up in its
// parent list's mark, a candidate in a Disc mark, a candidate's vertex in an
// overlap's mark.
const (
	// bindingCost is what a step spends per binding of the positions before
	// it besides its probes: group lookups, node cache keys, marks.
	bindingCost = 128
	// visitCost is binding one candidate and calling the next step.
	visitCost = 16
)

// orderModel holds what the estimate reads of one pattern and store, indexed
// by the pattern's own hyperedge numbers.
type orderModel struct {
	p    *pattern.Pattern
	m    int
	deg  []int
	n    []float64   // n[i]: hyperedges of deg[i] in the store
	grp  [][]float64 // grp[i][j]: mean length of the group j is drawn from when i is bound
	disc [][]float64 // disc[i][j]: mean length of i's degree-deg[j] groups, all overlaps
	// venn[i] are pe_i's Venn regions: its vertices grouped by the mask of
	// the hyperedges holding them (sig.Signature.RegionSizes).
	venn  [][]region
	parts []region // scratch of regions
	conds *condSteps
	// counted: the last position is counted, not visited (no labels).
	counted bool
	labels  sig.LabelSignature
}

// ChooseOrder returns the matching order of p with the lowest estimated cost
// on st: order[t] is the hyperedge matched at position t, and every position
// overlaps one before it. first ≥ 0 (a hyperedge of p) fixes position 0, as
// the streaming miner's anchor-first plans need; a negative first leaves it to
// the cost. Every term of the cost is linear in the bindings of position 0, so
// with position 0 fixed the order is the one any count of seeds there would
// choose. The result is a function of (p, st, first) alone.
func ChooseOrder(st Stats, p *pattern.Pattern, first int) []int {
	om := newOrderModel(st, p)
	starts := uint32(1)<<om.m - 1
	if first >= 0 {
		starts = 1 << first
	}
	if om.m <= exhaustiveEdges {
		return om.exhaustive(starts)
	}
	return om.greedy(starts)
}

func newOrderModel(st Stats, p *pattern.Pattern) *orderModel {
	m := p.NumEdges()
	s := p.Signature()
	om := &orderModel{
		p: p, m: m, deg: make([]int, m), n: make([]float64, m),
		grp: make([][]float64, m), disc: make([][]float64, m),
		conds:   newCondSteps(p),
		counted: !p.Labeled() && !p.EdgeLabeled(),
	}
	if p.Labeled() {
		om.labels, _ = p.LabelSignature()
	}
	om.venn = make([][]region, m)
	for mask, n := range s.RegionSizes() {
		for rest := uint32(mask); n > 0 && rest != 0; rest &= rest - 1 {
			i := bits.TrailingZeros32(rest)
			om.venn[i] = append(om.venn[i], region{mask: uint32(mask), n: n})
		}
	}
	for i := range m {
		om.deg[i] = p.Degree(i)
		om.n[i] = float64(st.NumEdgesWithDegree(om.deg[i]))
	}
	for i := range m {
		om.grp[i], om.disc[i] = make([]float64, m), make([]float64, m)
		if om.n[i] == 0 {
			continue
		}
		for j := range m {
			if j == i {
				continue
			}
			if ov := s.Size(1<<i | 1<<j); ov > 0 {
				om.grp[i][j] = float64(st.GroupSum(om.deg[i], om.deg[j], ov)) / om.n[i]
			} else {
				om.disc[i][j] = float64(st.GroupSum(om.deg[i], om.deg[j], -1)) / om.n[i]
			}
		}
	}
	return om
}

// search is the state of one order under construction: the hyperedges placed
// so far, and per position t the estimated bindings of positions 0..t, the
// candidates step t lists per binding of the positions before it, and the
// cost of the steps up to t.
type search struct {
	order []int
	b     []float64
	list  []float64
	cost  []float64
}

func (om *orderModel) newSearch() *search {
	return &search{order: make([]int, 0, om.m), b: make([]float64, om.m), list: make([]float64, om.m), cost: make([]float64, om.m)}
}

// place appends x at the next position and prices its step.
func (om *orderModel) place(s *search, x int) {
	t := len(s.order)
	s.order = append(s.order, x)
	if t == 0 {
		s.b[0], s.list[0], s.cost[0] = om.n[x], om.n[x], 0
		if om.m > 1 {
			s.cost[0] = float64(om.n[x] * visitCost)
		}
		return
	}
	c, list := om.step(s, t)
	s.list[t] = list
	s.b[t] = float64(s.b[t-1] * list)
	if t < om.m-1 {
		c += float64(s.b[t] * visitCost)
	}
	s.cost[t] = s.cost[t-1] + c
}

// step prices step t of s.order: per binding of the positions before it, a
// lookup; every node of the chain that adds a Conn group, built once per
// binding of the positions it reads, probes the group into its parent's mark;
// a list with Disc positions is probed into their mark. It returns that cost
// and the list's estimated length: the first Conn group's mean length, times
// the chance that a member shares the right vertices with the other bound
// hyperedges inside it (regions), times √(ḡ/N) for every other Conn group it
// must also meet outside the first, times what the Disc groups leave.
func (om *orderModel) step(s *search, t int) (cost, list float64) {
	x, prev := s.order[t], s.b[t-1]
	sg := om.p.Signature()
	first, last := -1, -1
	var used uint32
	for p := 0; p < t; p++ {
		used |= 1 << s.order[p]
		if sg.Size(1<<s.order[p]|1<<x) > 0 {
			if first < 0 {
				first = p
			}
			last = p
		}
	}
	cost = float64(prev * bindingCost)
	if om.n[x] == 0 {
		return cost, 0
	}
	y1 := s.order[first]
	list = float64(om.grp[y1][x] * om.regions(y1, x, used))
	var disc float64
	for p := range t {
		y := s.order[p]
		if sg.Size(1<<y|1<<x) == 0 {
			disc += om.disc[y][x]
			continue
		}
		if p == first {
			continue
		}
		build := s.b[p]
		if p == last {
			build = prev
		}
		cost += float64(build * om.grp[y][x])
		if om.outside(x, y, y1) {
			list = float64(list * math.Sqrt(om.grp[y][x]/om.n[x]))
		}
	}
	if disc > 0 {
		cost += float64(prev * list)
		list = float64(list * max(0, 1-disc/om.n[x]))
	}
	return cost, list
}

// region is a set of n vertices of one hyperedge held by the hyperedges in
// mask, k of them by the hyperedge being placed.
type region struct {
	mask uint32
	n, k int
}

// regions is the chance that a hyperedge drawn from the group of c_y1 that
// position x needs shares the right vertices, inside c_y1, with the other
// bound hyperedges in used: its overlap with c_y1 taken as a uniform subset of
// c_y1, whose Venn regions against them are the pattern's (a bound prefix is
// an embedding) — a multivariate hypergeometric. The regions are multiplied
// in (n, k) order, so the product does not depend on how the literal numbers
// vertices or hyperedges.
func (om *orderModel) regions(y1, x int, used uint32) float64 {
	parts := om.parts[:0]
	for _, r := range om.venn[y1] {
		key, k := r.mask&used&^(1<<y1), 0
		if r.mask&(1<<x) != 0 {
			k = r.n
		}
		if i := slices.IndexFunc(parts, func(q region) bool { return q.mask == key }); i >= 0 {
			parts[i].n += r.n
			parts[i].k += k
		} else {
			parts = append(parts, region{mask: key, n: r.n, k: k})
		}
	}
	slices.SortFunc(parts, func(a, b region) int { return cmp.Or(cmp.Compare(a.n, b.n), cmp.Compare(a.k, b.k)) })
	om.parts = parts
	p := 1.0
	for _, r := range parts {
		p = float64(p * binom(r.n, r.k))
	}
	return p / binom(om.deg[y1], om.p.Signature().Size(1<<y1|1<<x))
}

// outside reports whether pe_x meets pe_y outside pe_y1.
func (om *orderModel) outside(x, y, y1 int) bool {
	return slices.ContainsFunc(om.venn[x], func(r region) bool { return r.mask&(1<<y) != 0 && r.mask&(1<<y1) == 0 })
}

// binom returns C(n, k) as a float64, each factor rounded in turn.
func binom(n, k int) float64 {
	k = min(k, n-k)
	c := 1.0
	for i := 1; i <= k; i++ {
		c = float64(c*float64(n-k+i)) / float64(i)
	}
	return c
}

// total completes the cost of a full order: each step with conditions checks
// every listed candidate against them, one probe per vertex, and a last
// position that is not counted is visited candidate by candidate.
func (om *orderModel) total(s *search) float64 {
	c := s.cost[om.m-1]
	steps := om.conds.At(s.order)
	for t := 1; t < om.m; t++ {
		if steps&(1<<t) != 0 {
			c += float64(float64(s.b[t-1]*s.list[t]) * float64(om.deg[s.order[t]]))
		}
	}
	if !om.counted {
		c += float64(s.b[om.m-1] * visitCost)
	}
	return c
}

// touches reports whether hyperedge x overlaps one of the hyperedges in used.
func (om *orderModel) touches(x int, used uint32) bool {
	s := om.p.Signature()
	for rest := used; rest != 0; rest &= rest - 1 {
		if s.Size(1<<x|rest&-rest) > 0 {
			return true
		}
	}
	return false
}

// exhaustive prices every connected order that starts in starts, cutting a
// prefix whose cost already exceeds the cheapest complete order's: costs only
// grow with the prefix, so an order that ties the cheapest is never cut.
func (om *orderModel) exhaustive(starts uint32) []int {
	var best []int
	bestCost := math.Inf(1)
	s := om.newSearch()
	var rec func(used uint32)
	rec = func(used uint32) {
		t := len(s.order)
		if t == om.m {
			if c := om.total(s); best == nil || c < bestCost || c == bestCost && om.compare(s.order, best) < 0 {
				best, bestCost = append(best[:0], s.order...), c
			}
			return
		}
		for x := range om.m {
			if used&(1<<x) != 0 || t == 0 && starts&(1<<x) == 0 || t > 0 && !om.touches(x, used) {
				continue
			}
			if om.place(s, x); s.cost[t] <= bestCost {
				rec(used | 1<<x)
			}
			s.order = s.order[:t]
		}
	}
	rec(0)
	return best
}

// greedy extends an order from every first hyperedge in starts, each time by
// the connected hyperedge whose step costs least, and keeps the cheapest
// result.
func (om *orderModel) greedy(starts uint32) []int {
	var best []int
	bestCost := math.Inf(1)
	s := om.newSearch()
	for first := range om.m {
		if starts&(1<<first) == 0 {
			continue
		}
		s.order = s.order[:0]
		om.place(s, first)
		used := uint32(1) << first
		for t := 1; t < om.m; t++ {
			pick, pickCost := -1, 0.0
			for x := range om.m {
				if used&(1<<x) != 0 || !om.touches(x, used) {
					continue
				}
				om.place(s, x)
				if c := s.cost[t]; pick < 0 || c < pickCost {
					pick, pickCost = x, c
				}
				s.order = s.order[:t]
			}
			om.place(s, pick)
			used |= 1 << pick
		}
		if c := om.total(s); best == nil || c < bestCost || c == bestCost && om.compare(s.order, best) < 0 {
			best, bestCost = append(best[:0], s.order...), c
		}
	}
	return best
}

// compare orders two matching orders of equal cost by the plans they compile
// to, position by position: a hyperedge's degree, label and label histogram,
// then the size (and labels) of its overlap with every subset of the earlier
// positions — Degree, ConnOverlap, Disc and what the conditions want, in the
// order the steps read them. Equal there, the plans are the same but for
// which hyperedge sits where, and the smaller order wins.
func (om *orderModel) compare(a, b []int) int {
	s := om.p.Signature()
	for mask := uint32(1); mask < 1<<om.m; mask++ {
		ma, mb := remap(mask, a), remap(mask, b)
		if c := cmp.Compare(s.Size(ma), s.Size(mb)); c != 0 {
			return c
		}
		if om.p.EdgeLabeled() && mask&(mask-1) == 0 {
			t := bits.TrailingZeros32(mask)
			if c := cmp.Compare(om.p.EdgeLabel(a[t]), om.p.EdgeLabel(b[t])); c != 0 {
				return c
			}
		}
		if om.p.Labeled() {
			if c := slices.CompareFunc(om.labels.Counts[ma], om.labels.Counts[mb], func(x, y sig.LabelCount) int {
				return cmp.Or(cmp.Compare(x.Label, y.Label), cmp.Compare(x.Count, y.Count))
			}); c != 0 {
				return c
			}
		}
	}
	return slices.Compare(a, b)
}

// remap maps a subset of positions to the hyperedges order places there.
func remap(mask uint32, order []int) uint32 {
	var out uint32
	for t := range order {
		if mask&(1<<t) != 0 {
			out |= 1 << order[t]
		}
	}
	return out
}

// EstimatedBindings returns, per position t of plan, the estimate its
// matching order was priced with: how many bindings of positions 0..t a run
// on st makes.
func EstimatedBindings(st Stats, plan *Plan) []float64 {
	om := newOrderModel(st, plan.Pattern)
	s := om.newSearch()
	for t := range om.m {
		om.place(s, t)
	}
	return s.b
}
