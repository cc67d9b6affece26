package exp

import "fmt"

func init() {
	register(Experiment{
		ID:    "fig14",
		Title: "Labeled HPM speedup, single thread (paper: 5.1x-22.0x)",
		Run:   runFig14,
	})
}

// runFig14 reproduces the labeled-HPM comparison: vertex labels prune the
// search space hard, so the paper (and this harness) runs single-threaded.
// Three label classes keep the bench-scale workloads out of the degenerate
// microsecond regime where fixed overheads mask the algorithmic gap (with
// 8 classes over the scaled datasets nearly every cell collapses to the
// single sampled instance).
func runFig14(c *Context, opts RunOpts) ([]*Table, error) {
	const numLabels = 3
	opts.Workers = 1
	return speedupGrid(c, opts, speedupGridSpec{
		Title:    "Figure 14: OHMiner speedup over HGMatch (labeled, 1 thread)",
		System:   ohminerSys,
		Datasets: datasetsFor(opts, []string{"CH", "CP", "SB", "HB", "WT", "TC"}, []string{"SB", "WT"}),
		Note:     fmt.Sprintf("vertices carry %d Zipf-distributed label classes; paper reports 5.1x-22.0x", numLabels),
		Labels:   numLabels,
	})
}
