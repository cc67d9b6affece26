package exp

import (
	"fmt"
	"time"

	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

func init() {
	register(Experiment{
		ID:    "table6",
		Title: "Overheads: pattern compile time, DAL build time/memory, DAL-T/HPM-T",
		Run:   runTable6,
	})
}

// runTable6 reproduces the overhead accounting of Table 6:
//
//	OIG-T      — time to compile a 6-hyperedge pattern sampled from the dataset
//	DAL-T      — DAL construction time
//	DAL-M      — DAL memory footprint
//	HGMatch-M  — memory of the baseline's store (the plain dual-CSR hypergraph)
//	DAL-T/HPM-T — DAL build time relative to one p3 mining workload
func runTable6(c *Context, opts RunOpts) ([]*Table, error) {
	t := &Table{
		Title:  "Table 6: overheads of OHMiner",
		Header: []string{"dataset", "OIG-T", "DAL-T", "DAL-M", "HGMatch-M", "DAL-T/HPM-T"},
		Notes: []string{
			"paper: OIG-T 0.04ms-1.85ms; DAL-T 0.02s-5.83s amortized to 0.1%-3.4% of HPM time",
			"HGMatch-M is the dual-CSR hypergraph the baseline mines from",
		},
	}
	datasets := datasetsFor(opts,
		[]string{"CH", "CP", "SB", "HB", "WT", "TC", "CD", "AM"},
		[]string{"CH", "SB", "WT"})
	for _, tag := range datasets {
		store, err := c.Dataset(tag)
		if err != nil {
			return nil, err
		}
		h := store.Hypergraph()

		// OIG-T: compile a 6-hyperedge sampled pattern (the paper's largest
		// setting; compilation cost grows with hyperedge count).
		rng := newRand(opts.Seed*1000003 + saltFor(tag, "compile"))
		oigT := time.Duration(0)
		p6, err := pattern.Sample(h, 6, 6, 60, rng)
		if err != nil {
			// Fall back to a smaller pattern on sparse datasets.
			p6, err = pattern.Sample(h, 4, 4, 60, rng)
		}
		if err == nil {
			plan, cerr := oig.Compile(p6, oig.ModeMerged)
			if cerr != nil {
				return nil, cerr
			}
			oigT = plan.CompileTime
		}

		// HPM-T: one p3 workload mined by OHMiner.
		set := pattern.Setting{Name: "p3", NumEdges: 3, VertMin: 10, VertMax: 20, Count: 2}
		pats, err := samplePatterns(store, set, opts, saltFor(tag, "table6"))
		hpmT := time.Duration(0)
		if err == nil {
			m, _, merr := mineSet(store, pats, ohminerSys, opts, false, nil)
			if merr != nil {
				return nil, merr
			}
			hpmT = m.AvgTime * time.Duration(m.Runs)
		}
		ratio := "-"
		if hpmT > 0 {
			// The paper's column is DAL build time relative to one HPM
			// workload's mining time (can exceed 100% when the workload is
			// small, as with the bench-scale p3 pair used here).
			ratio = fmt.Sprintf("%.0f%%", 100*float64(store.BuildTime())/float64(hpmT))
		}
		t.AddRow(tag,
			fmt.Sprintf("%.3fms", float64(oigT)/float64(time.Millisecond)),
			fmt.Sprintf("%.2fs", store.BuildTime().Seconds()),
			mb(store.MemoryBytes()), mb(h.MemoryBytes()), ratio)
	}
	return []*Table{t}, nil
}

func mb(bytes int64) string {
	v := float64(bytes) / (1 << 20)
	if v >= 1000 {
		return fmt.Sprintf("%.2fGB", v/1024)
	}
	return fmt.Sprintf("%.1fMB", v)
}
