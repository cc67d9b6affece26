package exp

import (
	"fmt"

	"ohminer/internal/dal"
	"ohminer/internal/pattern"
)

func init() {
	register(Experiment{
		ID:    "fig17a",
		Title: "Larger hypergraphs CD/AM + synthetic (paper: 7.6x-14.5x, synthetic 7.9x-20.1x)",
		Run: func(c *Context, opts RunOpts) ([]*Table, error) {
			tables, err := speedupGrid(c, opts, speedupGridSpec{
				Title:    "Figure 17(a): speedup on larger hypergraphs",
				System:   ohminerSys,
				Datasets: datasetsFor(opts, []string{"CD", "AM", "SYN"}, []string{"CD"}),
				Note:     "CD/AM/SYN are scale-reduced (DESIGN.md); paper: CD 7.6x-12.2x, AM 9.9x-14.5x, 100M synthetic 7.9x-20.1x",
			})
			return tables, err
		},
	})
	register(Experiment{
		ID:    "fig17b",
		Title: "Dense patterns on SB/HB/TC (paper: 5.3x-13.0x)",
		Run:   runFig17b,
	})
}

// runFig17b mines dense patterns — every hyperedge pair overlaps — which
// maximizes the number of overlap computations OHMiner must perform
// (Sec. 5.5 sensitivity study).
func runFig17b(c *Context, opts RunOpts) ([]*Table, error) {
	t := &Table{
		Title:  "Figure 17(b): dense patterns (every hyperedge pair overlaps)",
		Header: []string{"dataset", "edges", "OHMiner", "HGMatch", "speedup", "embeddings"},
		Notes:  []string{"paper: SB 6.9x-10.2x, HB 5.3x-8.9x, TC 6.4x-13.0x"},
	}
	sizes := []int{3, 4}
	if !opts.Quick {
		sizes = []int{3, 4, 5}
	}
	for _, tag := range datasetsFor(opts, []string{"SB", "HB", "TC"}, []string{"SB"}) {
		store, err := c.Dataset(tag)
		if err != nil {
			return nil, err
		}
		for _, m := range sizes {
			pats, err := sampleDenseSet(store, m, opts, saltFor(tag, fmt.Sprintf("dense%d", m)))
			if err != nil {
				return nil, fmt.Errorf("%s dense-%d: %w", tag, m, err)
			}
			v, err := versus(store, pats, ohminerSys, hgmatchSys, opts)
			if err != nil {
				return nil, err
			}
			t.AddRow(tag, fmt.Sprintf("%d%s", m, v.Note), v.Fast, v.Base, v.Speedup, v.Embeddings)
		}
	}
	return []*Table{t}, nil
}

// sampleDenseSet draws dense patterns deterministically, mirroring
// pattern.SampleSet but with the all-pairs-overlap constraint.
func sampleDenseSet(store *dal.Store, m int, opts RunOpts, salt int64) ([]*pattern.Pattern, error) {
	h := store.Hypergraph()
	count := 3
	if opts.Quick {
		count = 2
	}
	rng := newRand(opts.Seed*1000003 + salt)
	out := make([]*pattern.Pattern, 0, count)
	for len(out) < count {
		p, err := pattern.SampleDense(h, m, m, 60, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
