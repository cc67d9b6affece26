package exp

import (
	"fmt"

	"ohminer/internal/baseline"
	"ohminer/internal/intset"
)

func init() {
	register(Experiment{
		ID:    "extras",
		Title: "Repository ablations: merge optimization, kernels (beyond the paper's figures)",
		Run:   runExtras,
	})
}

// runExtras measures the design choices DESIGN.md calls out that the
// paper's figures do not isolate directly:
//
//   - the production engine against internal/baseline's OHMiner cell — same
//     plan, kernels and store accessors, so the ratio is what the
//     work-stealing driver and its options cost or buy (the parity row);
//   - ModeMerged vs ModeSimple plans on identical DAL generation (the OIG
//     merge optimization in isolation);
//   - adaptive vs scalar set kernels (the SIMD stand-in, cf. the paper's
//     3.8x-19.6x no-SIMD claim).
func runExtras(c *Context, opts RunOpts) ([]*Table, error) {
	t := &Table{
		Title:  "Extras: repository-level ablations (times per cell, OHMiner generation)",
		Header: []string{"dataset", "setting", "merged", "baseline-merged", "simple", "scalar-kernel"},
		Notes: []string{
			"merged = full OHMiner on the production engine",
			"baseline-merged = internal/baseline's OHMiner cell (parity with merged); simple = its IEP-only plan; scalar = its no-SIMD kernels",
		},
	}
	configs := []system{
		ohminerSys,
		baselineSys("baseline-merged", baseline.Options{}),
		baselineSys("simple", baseline.Options{Val: baseline.ValOverlapSimple}),
		baselineSys("scalar", baseline.Options{Kernel: intset.Scalar}),
	}
	for _, tag := range datasetsFor(opts, []string{"SB", "HB", "WT"}, []string{"SB"}) {
		store, err := c.Dataset(tag)
		if err != nil {
			return nil, err
		}
		for _, set := range settingsFor(opts, "P3", "P4") {
			progressf("  [extras] %s/%s\n", tag, set.Name)
			pats, err := samplePatterns(store, set, opts, saltFor(tag, set.Name))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", tag, set.Name, err)
			}
			row := []string{tag, set.Name}
			var counts []uint64
			for _, cfg := range configs {
				m, cs, err := mineSet(store, pats, cfg, opts, false, counts)
				if err != nil {
					return nil, err
				}
				if counts == nil {
					counts = cs
				}
				if m.Runs == 0 {
					row = append(row, "timeout")
					continue
				}
				row = append(row, ms(m.AvgTime))
			}
			t.AddRow(row...)
		}
	}
	return []*Table{t}, nil
}
