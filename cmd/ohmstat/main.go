// Command ohmstat inspects a hypergraph: the Table 3 summary statistics,
// hyperedge-degree histogram, overlap/connection density, and DAL
// preprocessing cost — the numbers one needs before choosing mining
// parameters.
//
//	ohmstat -dataset SB
//	ohmstat -input data.hg -density "6 6 8"
//	ohmstat -dataset SB -partition "0 1 2; 2 3 4" -parts 16
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"ohminer/internal/cliio"
	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/hypergraph"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ohmstat:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		input   = flag.String("input", "", "hypergraph file (text format)")
		dataset = flag.String("dataset", "", "Table 3 preset tag instead of a file")
		density = flag.String("density", "", "degrees (space-separated) for a connection-density probe, e.g. \"6 6 8\"")
		noDAL   = flag.Bool("nodal", false, "skip DAL construction timing")
		seed    = flag.Int64("seed", 1, "sampling seed for the density probe")
		part    = flag.String("partition", "", "pattern literal: report how this pattern's first-hyperedge candidate space splits into cluster task ranges")
		parts   = flag.Int("parts", 16, "task-range count for -partition (matches ohmserve -cluster-parts)")
	)
	flag.Parse()

	h, err := cliio.LoadData(*input, *dataset)
	if err != nil {
		return err
	}

	out := cliio.NewWriter(os.Stdout)
	s := hypergraph.ComputeStats(h)
	out.Printf("%s\n", h)
	out.Printf("  vertices:        %d (avg incident hyperedges %.2f, max %d)\n",
		s.NumVertices, s.AvgVertexDeg, s.MaxVertexDeg)
	out.Printf("  hyperedges:      %d (avg degree %.2f, p50 %d, p99 %d, max %d)\n",
		s.NumEdges, s.AvgEdgeDeg, s.EdgeDegreeP50, s.EdgeDegreeP99, s.MaxEdgeDeg)
	out.Printf("  incidence:       %d entries, %.1f MB dual-CSR\n",
		h.TotalIncidence(), float64(h.MemoryBytes())/(1<<20))
	if h.Labeled() {
		out.Printf("  vertex labels:   %d classes\n", h.NumLabels())
	}
	if h.EdgeLabeled() {
		out.Printf("  hyperedge labels: present\n")
	}

	// Degree histogram (top buckets).
	hist := map[int]int{}
	for e := 0; e < h.NumEdges(); e++ {
		hist[h.Degree(uint32(e))]++
	}
	degs := make([]int, 0, len(hist))
	for d := range hist {
		degs = append(degs, d)
	}
	sort.Ints(degs)
	out.Println("  degree histogram:")
	shown := 0
	for _, d := range degs {
		if shown >= 12 {
			out.Printf("    ... %d more degrees\n", len(degs)-shown)
			break
		}
		out.Printf("    %4d: %d\n", d, hist[d])
		shown++
	}

	if *density != "" {
		var probe []int
		for _, f := range strings.Fields(*density) {
			d, err := strconv.Atoi(f)
			if err != nil {
				return fmt.Errorf("bad density degree %q", f)
			}
			probe = append(probe, d)
		}
		c := hypergraph.ConnectionDensity(h, probe, 500, *seed)
		out.Printf("  connection density for degrees %v: %.4f\n", probe, c)
	}

	if !*noDAL {
		start := time.Now()
		store := dal.Build(h)
		out.Printf("  DAL: built in %v, %.1f MB, %d distinct degrees\n",
			time.Since(start).Round(time.Millisecond),
			float64(store.MemoryBytes())/(1<<20), len(store.Degrees()))
		// Adaptive-container census: how much of this dataset the set
		// kernels can run on bitmap windows (dense, word-parallel) rather
		// than sorted arrays — the density profile the engine's kernels
		// adapt to.
		cs := store.Containers()
		// The group index by level: the paper's degree groups, and the
		// (degree, overlap size) groups candidate generation reads.
		out.Printf("  groups: %d degree groups in %d (degree, overlap) groups, %.1f%% bitmap-windowed, %.1f bytes per group\n",
			cs.DegreeGroups, cs.AdjGroups, 100*float64(cs.AdjWindowed)/float64(max(cs.AdjGroups, 1)),
			float64(cs.GroupBytes)/float64(max(cs.AdjGroups, 1)))
		out.Printf("  containers: %d/%d adjacency groups and %d/%d hyperedge vertex sets bitmap-windowed (%.1f KB arenas)\n",
			cs.AdjWindowed, cs.AdjGroups, cs.EdgeWindowed, cs.EdgeSets,
			float64(cs.WindowBytes)/(1<<10))
		// First-step candidate pools from the degree index — the seed tasks
		// the work-stealing scheduler distributes; a pool of 1-2 edges means
		// parallelism will come entirely from subtree stealing.
		degs := store.Degrees()
		top, topDeg := 0, 0
		low, lowDeg := -1, 0
		for _, d := range degs {
			n := store.NumEdgesWithDegree(d)
			if n > top {
				top, topDeg = n, d
			}
			if low < 0 || n < low {
				low, lowDeg = n, d
			}
		}
		out.Printf("  degree index: largest first-step pool %d edges (degree %d), smallest %d (degree %d)\n",
			top, topDeg, low, lowDeg)

		if *part != "" {
			if err := reportPartition(out, store, *part, *parts); err != nil {
				return err
			}
		}
	} else if *part != "" {
		return fmt.Errorf("-partition needs the DAL (drop -nodal)")
	}
	return out.Close()
}

// reportPartition previews how a distributed job over this dataset would
// split: the first pattern hyperedge's candidate space is partitioned into
// task ranges exactly as the cluster coordinator does it, and the balance of
// candidate counts per range bounds how evenly the leases can spread. (The
// subtree cost under each candidate still varies — candidate counts are the
// partitioning's input, not a perfect cost model.) It first prints the
// matching order the job runs — chosen by cost on this store — with its plan
// fingerprint and the bindings the cost model expects at each position.
func reportPartition(out *cliio.Writer, store *dal.Store, pat string, parts int) error {
	p, err := pattern.Parse(pat)
	if err != nil {
		return fmt.Errorf("-partition pattern: %w", err)
	}
	if parts <= 0 {
		return fmt.Errorf("-parts must be positive")
	}
	plan, err := engine.CompilePlan(store, p, engine.Options{})
	if err != nil {
		return err
	}
	out.Printf("  matching order for %q, by estimated cost on this store (plan fingerprint %#x):\n", pat, plan.FP)
	for t, b := range oig.EstimatedBindings(store, plan) {
		out.Printf("    position %d: hyperedge %d (degree %d), ~%.3g bindings\n", t, plan.Order[t], plan.Steps[t].Degree, b)
	}
	tasks := engine.Frontier(store, plan, parts)
	out.Printf("  partition preview for %q into %d parts:\n", pat, parts)
	if len(tasks) == 0 {
		out.Printf("    no first-step candidates: the pattern cannot match this data\n")
		return nil
	}
	total, minC, maxC := 0, len(tasks[0].Cands), len(tasks[0].Cands)
	for i, t := range tasks {
		out.Printf("    task %2d: %d candidates\n", i, len(t.Cands))
		total += len(t.Cands)
		if len(t.Cands) < minC {
			minC = len(t.Cands)
		}
		if len(t.Cands) > maxC {
			maxC = len(t.Cands)
		}
	}
	imbalance := "perfect"
	if minC > 0 && maxC != minC {
		imbalance = fmt.Sprintf("%.2fx", float64(maxC)/float64(minC))
	} else if minC == 0 {
		imbalance = "degenerate (empty ranges)"
	}
	out.Printf("    %d candidates total across %d tasks; min %d, max %d, imbalance %s\n",
		total, len(tasks), minC, maxC, imbalance)
	return nil
}
