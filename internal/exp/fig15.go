package exp

import (
	"fmt"

	"ohminer/internal/baseline"
)

func init() {
	register(Experiment{
		ID:    "fig15",
		Title: "Ablation: OHM-I, OHM-V, OHM-G, OHMiner speedups over HGMatch",
		Run:   runFig15,
	})
}

// runFig15 reproduces the optimization-technique ablation (Sec. 5.3):
//
//	OHM-I = HGMatch generation + IEP-only overlap validation (1.40x-3.01x)
//	OHM-V = HGMatch generation + full OHMiner validation     (2.01x-4.74x)
//	OHM-G = OHMiner generation + HGMatch validation          (1.11x-1.45x)
//	OHMiner = both                                           (OHM-V x 2.56-3.70)
func runFig15(c *Context, opts RunOpts) ([]*Table, error) {
	variants := []system{
		baselineSys("OHM-I", baseline.Options{Gen: baseline.GenHGMatch, Val: baseline.ValOverlapSimple}),
		baselineSys("OHM-V", baseline.Options{Gen: baseline.GenHGMatch}),
		baselineSys("OHM-G", baseline.Options{Val: baseline.ValProfiles}),
		ohminerSys,
	}
	t := &Table{
		Title:  "Figure 15: speedup over HGMatch by optimization technique",
		Header: []string{"dataset", "setting", "OHM-I", "OHM-V", "OHM-G", "OHMiner"},
		Notes: []string{
			"expected ordering per paper: OHM-G < OHM-I < OHM-V < OHMiner",
			"OHM-I = IEP set-ops only; OHM-V adds merge+pruning; OHM-G = DAL generation only",
			"HGMatch and the OHM-* columns run in internal/baseline, OHMiner is the production engine",
		},
	}
	for _, tag := range datasetsFor(opts, []string{"SB", "HB", "WT"}, []string{"SB"}) {
		store, err := c.Dataset(tag)
		if err != nil {
			return nil, err
		}
		for _, set := range settingsFor(opts, "P3") {
			pats, err := samplePatterns(store, set, opts, saltFor(tag, set.Name))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", tag, set.Name, err)
			}
			base, counts, err := mineSet(store, pats, hgmatchSys, opts, false, nil)
			if err != nil {
				return nil, err
			}
			cells := make([]string, len(variants))
			minCommon := len(pats)
			anyTrunc := base.Truncated
			for i, v := range variants {
				m, _, err := mineSet(store, pats, v, opts, false, counts)
				if err != nil {
					return nil, err
				}
				vAvg, bAvg, common, truncated := align(m, base)
				anyTrunc = anyTrunc || truncated
				if common < minCommon {
					minCommon = common
				}
				if common == 0 {
					if lb, ok := lowerBound(m, opts.CellBudget); ok {
						cells[i] = lb
					} else {
						cells[i] = "timeout"
					}
					continue
				}
				cells[i] = speedup(bAvg, vAvg)
			}
			t.AddRow(tag, set.Name+cellNote(minCommon, len(pats), anyTrunc),
				cells[0], cells[1], cells[2], cells[3])
		}
	}
	return []*Table{t}, nil
}
