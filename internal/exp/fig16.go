package exp

import (
	"fmt"
	"runtime"

	"ohminer/internal/pattern"
)

func init() {
	register(Experiment{
		ID:    "fig16",
		Title: "Thread scalability 1-128 workers (paper: OHMiner scales better than HGMatch)",
		Run:   runFig16,
	})
}

// runFig16 sweeps the worker count for both systems and reports times
// normalized to each system's single-worker run, as in Figure 16.
//
// Substitution note (DESIGN.md): the reproduction environment has a single
// CPU core, so wall-clock cannot improve with workers; the sweep still
// exercises the dynamic-scheduling code path and reports the normalized
// series plus the scheduling overhead. On a multi-core host the same
// harness produces genuine scaling curves.
func runFig16(c *Context, opts RunOpts) ([]*Table, error) {
	workerCounts := []int{1, 2, 4, 8, 16, 32, 64, 128}
	if opts.Quick {
		workerCounts = []int{1, 4, 16}
	}
	systems := []system{ohminerSys, hgmatchSys}
	t := &Table{
		Title:  "Figure 16: normalized speedup vs own 1-worker time",
		Header: []string{"dataset", "system", "workers", "time", "self-speedup"},
		Notes: []string{
			fmt.Sprintf("host has %d CPU core(s), GOMAXPROCS=%d: scaling is expected to be flat here; see EXPERIMENTS.md", runtime.NumCPU(), runtime.GOMAXPROCS(0)),
			"paper (128 threads, 64 cores): OHMiner 62.2x vs HGMatch 44.1x self-speedup on HB p3",
			"OHMiner = production engine (work stealing), HGMatch = internal/baseline (the paper's first-level scheduling)",
		},
	}
	set := pattern.Setting{Name: "p3", NumEdges: 3, VertMin: 10, VertMax: 20, Count: 2}
	for _, tag := range datasetsFor(opts, []string{"HB", "WT"}, []string{"WT"}) {
		store, err := c.Dataset(tag)
		if err != nil {
			return nil, err
		}
		pats, err := samplePatterns(store, set, opts, saltFor(tag, set.Name))
		if err != nil {
			return nil, err
		}
		for _, sys := range systems {
			var base measurement
			for i, wc := range workerCounts {
				o := opts
				o.Workers = wc
				m, _, err := mineSet(store, pats, sys, o, false, nil)
				if err != nil {
					return nil, err
				}
				if i == 0 {
					base = m
				}
				t.AddRow(tag, sys.Name, fmt.Sprintf("%d", wc), ms(m.AvgTime), speedup(base.AvgTime, m.AvgTime))
			}
		}
	}
	return []*Table{t}, nil
}
