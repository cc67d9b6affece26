package oig

import (
	"math/bits"
	"math/rand"
	"testing"

	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
	"ohminer/internal/intset"
	"ohminer/internal/pattern"
	"ohminer/internal/sig"
)

func TestVerifyAcceptsSpecialShapes(t *testing.T) {
	cases := []string{
		"0 1 2",         // single edge
		"0 1 2 3; 1 2",  // nested edge
		"0 1; 1 2; 0 2", // triangle with empty triple
		"0 1; 1 2; 2 3", // path with disconnection
		"0 1 2 3 4 5; 3 4 5 6 7 8; 3 4 5 6 7 9 10 11", // Fig. 1
	}
	for _, s := range cases {
		p, err := pattern.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeSimple, ModeMerged} {
			if err := VerifyProgram(MustCompile(p, mode)); err != nil {
				t.Errorf("%q mode %s: %v", s, mode, err)
			}
		}
	}
}

// TestConditionsImplyTheorem1 checks Theorem 1 end to end on data: on random
// patterns of three to six hyperedges, labelled and not, and on hand-made
// shapes with 3-way minimal members and nested classes, in both modes, a
// tuple of data hyperedges that meets the generation contract (degrees, Conn
// sizes, Disc) passes every condition of the steps up to t exactly when its
// first t+1 hyperedges overlap as the pattern's do — every subset's size and,
// labelled, its label histogram. The random patterns run on gen hypergraphs,
// each shape on the complete hypergraph of its degrees over its vertices and
// two more, where near misses of every kind abound. The tuples are drawn position by
// position, mostly among the candidates that keep the prefix an embedding, so
// that both embeddings and near misses occur at every depth.
func TestConditionsImplyTheorem1(t *testing.T) {
	rng := rand.New(rand.NewSource(2801))
	type workload struct {
		h     *hypergraph.Hypergraph
		p     *pattern.Pattern
		order []int // nil: the order Compile chooses
		draws int
	}
	var ws []workload
	for _, labels := range []int{0, 2} {
		h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 40, NumEdges: 300, Communities: 3,
			MemberOverlap: 1.5, EdgeSizeMin: 2, EdgeSizeMax: 6, EdgeSizeMean: 4, NumLabels: labels, Seed: 28 + int64(labels)})
		for trial := 0; trial < 40; trial++ {
			p, err := pattern.Sample(h, 3+rng.Intn(4), 3, 16, rng)
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, workload{h, p, nil, 30})
		}
	}
	for _, shape := range []struct {
		lit   string
		order []int
	}{
		{"0 1 4 5; 2 3 4 5; 2 3 4; 1 3 4", []int{0, 1, 2, 3}},
		{"0 3 4 5; 0 1 3; 0 1 2 3; 2 3 4", []int{0, 2, 1, 3}},
		{"0 1 3; 0 2 3; 0 2; 0 2 4", []int{0, 1, 3, 2}},
		// R = c0 ∩ c1 = {0}, and c2 ∩ c3 ∩ c4 = {0} a 3-way minimal member
		// whose pairs overlap in two.
		{"0 1; 0 2; 0 3 4; 0 3 5; 0 4 5", []int{0, 1, 2, 3, 4}},
	} {
		p, err := pattern.Parse(shape.lit)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, workload{completeHypergraph(p), p, shape.order, 300})
	}
	var matched, missed int
	for _, w := range ws {
		for _, mode := range []Mode{ModeSimple, ModeMerged} {
			plan, err := CompileOrdered(w.p, mode, w.order)
			if err != nil {
				t.Fatal(err)
			}
			for draw := 0; draw < w.draws; draw++ {
				tuple := make([]uint32, 0, len(plan.Steps))
				for k := range plan.Steps {
					c, ok := drawCandidate(w.h, plan, tuple, rng)
					if !ok {
						break
					}
					tuple = append(tuple, c)
					pass := true
					for s := 0; s <= k; s++ {
						for _, c := range plan.Steps[s].Conds {
							pass = pass && holds(w.h, tuple, c.Mask, c.Want, c.Label)
						}
					}
					if want := overlapsAsPattern(w.h, plan, tuple); pass != want {
						t.Fatalf("%s plan of %s: tuple %v passes the conditions up to step %d: %v, overlaps as the pattern: %v\n%s",
							mode, w.p, tuple, k, pass, want, plan)
					} else if want {
						matched++
					} else {
						missed++
					}
				}
			}
		}
	}
	t.Logf("%d matching and %d missing prefixes", matched, missed)
	if matched < 1000 || missed < 1000 {
		t.Fatalf("%d matching and %d missing prefixes: too few to mean anything", matched, missed)
	}
}

// completeHypergraph holds every set of p's vertices and two more whose size
// is the degree of one of p's hyperedges.
func completeHypergraph(p *pattern.Pattern) *hypergraph.Hypergraph {
	n := p.NumVertices() + 2
	var edges [][]uint32
	for set := uint32(1); set < 1<<n; set++ {
		for i := 0; i < p.NumEdges(); i++ {
			if bits.OnesCount32(set) == p.Degree(i) {
				var e []uint32
				for v := uint32(0); v < uint32(n); v++ {
					if set&(1<<v) != 0 {
						e = append(e, v)
					}
				}
				edges = append(edges, e)
				break
			}
		}
	}
	return hypergraph.MustBuild(n, edges, nil)
}

// drawCandidate picks a data hyperedge for the next position of tuple that
// meets the generation contract and the per-candidate tests — the step's
// degree and label histogram, a new ID, the Conn overlap sizes and the Disc
// disconnections — preferring, four times in five, one that keeps the tuple
// overlapping as the pattern does.
func drawCandidate(h *hypergraph.Hypergraph, plan *Plan, tuple []uint32, rng *rand.Rand) (uint32, bool) {
	st := &plan.Steps[len(tuple)]
	var all, good []uint32
next:
	for e := uint32(0); e < uint32(h.NumEdges()); e++ {
		if h.Degree(e) != st.Degree || plan.Labeled && !holds(h, []uint32{e}, 1, st.Degree, st.EdgeLabels) {
			continue
		}
		for _, c := range tuple {
			if c == e {
				continue next
			}
		}
		for i, j := range st.Conn {
			if len(intset.Intersect(h.EdgeVertices(e), h.EdgeVertices(tuple[j]), nil)) != st.ConnOverlap[i] {
				continue next
			}
		}
		for _, j := range st.Disc {
			if intset.Intersects(h.EdgeVertices(e), h.EdgeVertices(tuple[j])) {
				continue next
			}
		}
		all = append(all, e)
		if overlapsAsPattern(h, plan, append(tuple, e)) {
			good = append(good, e)
		}
	}
	switch {
	case len(good) > 0 && rng.Intn(5) > 0:
		return good[rng.Intn(len(good))], true
	case len(all) > 0:
		return all[rng.Intn(len(all))], true
	}
	return 0, false
}

// holds reports whether the bound hyperedges at mask's positions overlap in
// want vertices, with the label histogram when label is set.
func holds(h *hypergraph.Hypergraph, tuple []uint32, mask uint32, want int, label []sig.LabelCount) bool {
	ov := h.EdgeVertices(tuple[bits.TrailingZeros32(mask)])
	for rest := mask & (mask - 1); rest != 0; rest &= rest - 1 {
		ov = intset.Intersect(ov, h.EdgeVertices(tuple[bits.TrailingZeros32(rest)]), nil)
	}
	if len(ov) != want {
		return false
	}
	return label == nil || sig.HistogramMatches(h.Labels(), ov, label, make([]int, h.NumLabels()))
}

// overlapsAsPattern reports whether every subset of tuple overlaps as the
// pattern's first len(tuple) hyperedges do, label histograms included.
func overlapsAsPattern(h *hypergraph.Hypergraph, plan *Plan, tuple []uint32) bool {
	for mask := uint32(1); mask < 1<<len(tuple); mask++ {
		var label []sig.LabelCount
		if plan.Labeled {
			label = plan.LabelSig.Counts[mask]
		}
		if !holds(h, tuple, mask, plan.Sig.Size(mask), label) {
			return false
		}
	}
	return true
}
