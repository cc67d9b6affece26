package exp

import (
	"fmt"

	"ohminer/internal/hypergraph"
	"ohminer/internal/pattern"
)

func init() {
	register(Experiment{
		ID:    "fig3",
		Title: "HGMatch characteristics: phase breakdown, redundancy, connection density",
		Run:   runFig3,
	})
}

// runFig3 reproduces the four motivation measurements of Figure 3 by
// running the instrumented HGMatch configuration of internal/baseline:
//
//	(a) candidate generation + validation dominate execution time
//	(b) redundant computations (repeated incident-hyperedge derivations)
//	(c) redundant vertices in candidate validation (68%-91% in the paper)
//	(d) connection density of degree-mapped subhypergraphs (≤0.11)
func runFig3(c *Context, opts RunOpts) ([]*Table, error) {
	datasets := datasetsFor(opts, []string{"SB", "HB", "WT"}, []string{"SB", "WT"})
	// Instrumented HGMatch on P5+ is disproportionately slow; P3/P4 already
	// exhibit the Figure 3 trends.
	settings := settingsFor(opts, "P3")
	if !opts.Quick {
		settings = settingsFor(RunOpts{Quick: true, Seed: opts.Seed}, "P3", "P4")
		for i := range settings {
			settings[i].Count = 3
		}
	}

	breakdown := &Table{
		Title:  "Figure 3(a,b,c): HGMatch phase breakdown and redundancy",
		Header: []string{"dataset", "setting", "gen%", "val%", "redundant NM fetches", "redundant profile verts"},
		Notes: []string{
			"paper: generation+validation 97%-99% of time, validation up to 85%",
			"paper: redundant computations up to 90%; redundant vertices 68%-91% of validation",
		},
	}
	density := &Table{
		Title:  "Figure 3(d): connection density of degree-mapped subhypergraphs",
		Header: []string{"dataset", "setting", "density"},
		Notes:  []string{"paper: at most 0.11 — most degree-matched hyperedge pairs are disconnected"},
	}
	for _, tag := range datasets {
		store, err := c.Dataset(tag)
		if err != nil {
			return nil, err
		}
		for _, set := range settings {
			progressf("  [fig3] %s/%s\n", tag, set.Name)
			pats, err := samplePatterns(store, set, opts, saltFor(tag, set.Name))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", tag, set.Name, err)
			}
			m, _, err := mineSet(store, pats, hgmatchSys, opts, true, nil)
			if err != nil {
				return nil, err
			}
			redNM := "-"
			if m.Stats.NMFetches > 0 {
				redNM = pct(float64(m.Stats.RedundantNMFetches) / float64(m.Stats.NMFetches))
			}
			redProf := "-"
			if m.Stats.ProfileVertices > 0 {
				redProf = pct(float64(m.Stats.RedundantProfileVertices) / float64(m.Stats.ProfileVertices))
			}
			breakdown.AddRow(tag, set.Name, pct(m.GenFrac), pct(m.ValFrac), redNM, redProf)

			density.AddRow(tag, set.Name, fmt.Sprintf("%.4f", avgConnectionDensity(store.Hypergraph(), pats, opts.Seed)))
		}
	}
	return []*Table{breakdown, density}, nil
}

// avgConnectionDensity averages the Fig. 3(d) metric over the pattern set:
// among data hyperedges degree-mapped from the pattern's hyperedges, the
// fraction of pairs that overlap.
func avgConnectionDensity(h *hypergraph.Hypergraph, pats []*pattern.Pattern, seed int64) float64 {
	total := 0.0
	for _, p := range pats {
		degs := make([]int, p.NumEdges())
		for i := range degs {
			degs[i] = p.Degree(i)
		}
		total += hypergraph.ConnectionDensity(h, degs, 400, seed)
	}
	return total / float64(len(pats))
}
