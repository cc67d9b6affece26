package exp

import (
	"fmt"

	"ohminer/internal/baseline"
)

func init() {
	register(Experiment{
		ID:    "fig12",
		Title: "OHMiner vs HGMatch speedup, unlabeled HPM (paper: 5.4x-22.2x)",
		Run: func(c *Context, opts RunOpts) ([]*Table, error) {
			return speedupGrid(c, opts, speedupGridSpec{
				Title:    "Figure 12: OHMiner speedup over HGMatch (unlabeled)",
				System:   ohminerSys,
				Datasets: datasetsFor(opts, []string{"CH", "CP", "SB", "HB", "WT", "TC"}, []string{"SB", "WT"}),
				Note:     "paper reports 5.4x-22.2x across P2-P6; shape target: OHMiner wins on every cell",
			})
		},
	})
	register(Experiment{
		ID:    "fig13",
		Title: "OHM-V (HGMatch generation + OHMiner validation) vs HGMatch (paper: 1.05x-7.5x)",
		Run: func(c *Context, opts RunOpts) ([]*Table, error) {
			return speedupGrid(c, opts, speedupGridSpec{
				Title:    "Figure 13: OHM-V speedup over HGMatch",
				System:   baselineSys("OHM-V", baseline.Options{Gen: baseline.GenHGMatch}),
				Datasets: datasetsFor(opts, []string{"CH", "CP", "SB", "HB", "WT", "TC"}, []string{"SB", "WT"}),
				Note:     "paper reports 1.05x-7.5x: validation alone already beats HGMatch, by less than full OHMiner",
			})
		},
	})
}

type speedupGridSpec struct {
	Title    string
	System   system
	Datasets []string
	Note     string
	// Labels, when positive, runs the grid on the datasets generated with
	// that many vertex-label classes.
	Labels int
}

// speedupGrid runs the System and the HGMatch baseline over a dataset ×
// pattern-setting grid and tabulates per-cell average times and speedups —
// the template behind Figures 12, 13, 14 and 17.
func speedupGrid(c *Context, opts RunOpts, spec speedupGridSpec) ([]*Table, error) {
	t := &Table{
		Title:  spec.Title,
		Header: []string{"dataset", "setting", spec.System.Name, "HGMatch", "speedup", "embeddings"},
	}
	if spec.Note != "" {
		t.Notes = append(t.Notes, spec.Note)
	}
	for _, tag := range spec.Datasets {
		store, err := c.LabeledDataset(tag, spec.Labels)
		if err != nil {
			return nil, err
		}
		for _, set := range settingsFor(opts) {
			progressf("  [%s] %s/%s\n", spec.Title[:9], tag, set.Name)
			pats, err := samplePatterns(store, set, opts, saltFor(tag, set.Name))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", tag, set.Name, err)
			}
			v, err := versus(store, pats, spec.System, hgmatchSys, opts)
			if err != nil {
				return nil, err
			}
			t.AddRow(tag, set.Name+v.Note, v.Fast, v.Base, v.Speedup, v.Embeddings)
		}
	}
	return []*Table{t}, nil
}
