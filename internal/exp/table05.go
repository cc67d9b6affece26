package exp

import (
	"fmt"

	"ohminer/internal/pattern"
)

func init() {
	register(Experiment{
		ID:    "table5",
		Title: "Absolute execution times of HGMatch and OHMiner (p3/p4/p5 on SB/HB/WT)",
		Run:   runTable5,
	})
}

// runTable5 reproduces Table 5: one representative pattern per setting and
// dataset, absolute times for both systems. The paper's rows are p3, p4, p5
// on SB, HB, WT; quick mode trims to p3/p4.
func runTable5(c *Context, opts RunOpts) ([]*Table, error) {
	settings := []pattern.Setting{
		{Name: "p3", NumEdges: 3, VertMin: 10, VertMax: 20, Count: 1},
		{Name: "p4", NumEdges: 4, VertMin: 10, VertMax: 30, Count: 1},
		{Name: "p5", NumEdges: 5, VertMin: 15, VertMax: 35, Count: 1},
	}
	if opts.Quick {
		settings = settings[:2]
	}
	t := &Table{
		Title:  "Table 5: execution times (one sampled pattern per cell)",
		Header: []string{"pattern", "dataset", "HGMatch", "OHMiner", "speedup", "embeddings"},
		Notes: []string{
			"paper (full-scale datasets): speedups 7.22x-22.50x; datasets here are bench-scale (see DESIGN.md)",
		},
	}
	for _, set := range settings {
		for _, tag := range []string{"SB", "HB", "WT"} {
			store, err := c.Dataset(tag)
			if err != nil {
				return nil, err
			}
			pats, err := samplePatterns(store, set, opts, saltFor(tag, set.Name))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", tag, set.Name, err)
			}
			v, err := versus(store, pats, ohminerSys, hgmatchSys, opts)
			if err != nil {
				return nil, err
			}
			t.AddRow(set.Name+v.Note, tag, v.Base, v.Fast, v.Speedup, v.Embeddings)
		}
	}
	return []*Table{t}, nil
}
