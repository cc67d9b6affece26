package ohminer

// One testing.B benchmark per paper table/figure (delegating to the
// internal/exp harness in quick mode), plus per-variant and per-kernel
// micro-benchmarks over internal/baseline. `go test -bench=. -benchmem` regenerates the numbers
// EXPERIMENTS.md records; `cmd/ohmbench` runs the full-scale grids.

import (
	"context"
	"sync"
	"testing"
	"time"

	"ohminer/internal/baseline"
	"ohminer/internal/exp"
	"ohminer/internal/pattern"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *exp.Context
)

func benchContext() *exp.Context {
	benchCtxOnce.Do(func() { benchCtx = exp.NewContext() })
	return benchCtx
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	c := benchContext()
	opts := exp.RunOpts{Quick: true, Seed: 42, Workers: 1, CellBudget: 30 * time.Second}
	// Warm the dataset cache outside the timed region.
	if _, err := e.Run(c, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(c, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig03 regenerates the HGMatch characteristics study (Fig. 3).
func BenchmarkFig03(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig12 regenerates the headline OHMiner-vs-HGMatch grid (Fig. 12).
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkTable05 regenerates the absolute-time table (Table 5).
func BenchmarkTable05(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkFig13 regenerates the OHM-V validation study (Fig. 13).
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14 regenerates the labeled-HPM comparison (Fig. 14).
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15 regenerates the optimization ablation (Fig. 15).
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16 regenerates the thread-scalability sweep (Fig. 16).
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkFig17a regenerates the large-hypergraph study (Fig. 17(a)).
func BenchmarkFig17a(b *testing.B) { benchExperiment(b, "fig17a") }

// BenchmarkFig17b regenerates the dense-pattern study (Fig. 17(b)).
func BenchmarkFig17b(b *testing.B) { benchExperiment(b, "fig17b") }

// BenchmarkTable06 regenerates the overhead accounting (Table 6).
func BenchmarkTable06(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkMineVariants times one fixed p3 workload on SB under every
// system variant — the per-query view behind the speedup grids.
func BenchmarkMineVariants(b *testing.B) {
	store, err := benchContext().Dataset("SB")
	if err != nil {
		b.Fatal(err)
	}
	set := pattern.Setting{Name: "p3", NumEdges: 3, VertMin: 10, VertMax: 20, Count: 1}
	pats, err := pattern.SampleSet(store.Hypergraph(), set, 42)
	if err != nil {
		b.Fatal(err)
	}
	p := pats[0]
	for _, v := range baseline.Variants() {
		b.Run(v.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := baseline.Mine(context.Background(), store, p, baseline.Options{Gen: v.Gen, Val: v.Val, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if res.Ordered == 0 {
					b.Fatal("no embeddings")
				}
			}
		})
	}
}

// BenchmarkKernelAblation compares the adaptive, fast (static SIMD stand-in)
// and scalar set kernels on the same workload — the "OHMiner without SIMD"
// data point of Sec. 5.2.
func BenchmarkKernelAblation(b *testing.B) {
	store, err := benchContext().Dataset("WT")
	if err != nil {
		b.Fatal(err)
	}
	set := pattern.Setting{Name: "p3", NumEdges: 3, VertMin: 10, VertMax: 20, Count: 1}
	pats, err := pattern.SampleSet(store.Hypergraph(), set, 42)
	if err != nil {
		b.Fatal(err)
	}
	p := pats[0]
	for _, k := range baseline.Kernels() {
		b.Run(k.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.Mine(context.Background(), store, p, baseline.Options{Kernel: k, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMergeAblation isolates the compiler's merge optimization: the
// same DAL generation with the merged plan (class-minimal checks) vs the
// simple plan (every non-implied overlap checked) — one of the design
// choices DESIGN.md calls out.
func BenchmarkMergeAblation(b *testing.B) {
	store, err := benchContext().Dataset("SB")
	if err != nil {
		b.Fatal(err)
	}
	set := pattern.Setting{Name: "p4", NumEdges: 4, VertMin: 10, VertMax: 30, Count: 1}
	pats, err := pattern.SampleSet(store.Hypergraph(), set, 42)
	if err != nil {
		b.Fatal(err)
	}
	p := pats[0]
	for _, cfg := range []struct {
		name string
		val  baseline.ValMode
	}{
		{"merged", baseline.ValOverlap},
		{"simple", baseline.ValOverlapSimple},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.Mine(context.Background(), store, p, baseline.Options{Val: cfg.val, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanCompile times the redundancy-free compiler (OIG-T, Table 6).
func BenchmarkPlanCompile(b *testing.B) {
	store, err := benchContext().Dataset("SB")
	if err != nil {
		b.Fatal(err)
	}
	p, err := SamplePattern(store.Hypergraph(), 6, 6, 60, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompilePattern(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreBuild times DAL construction (DAL-T, Table 6).
func BenchmarkStoreBuild(b *testing.B) {
	store, err := benchContext().Dataset("CH")
	if err != nil {
		b.Fatal(err)
	}
	h := store.Hypergraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewStore(h)
	}
}

// benchMine times the production engine on one pattern over the TC preset,
// on one worker.
func benchMine(b *testing.B, literal string) {
	b.Helper()
	store, err := benchContext().Dataset("TC")
	if err != nil {
		b.Fatal(err)
	}
	p, err := ParsePattern(literal)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Mine(store, p, WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Ordered == 0 {
			b.Fatal("no embeddings")
		}
	}
}

// BenchmarkMineChain: a path of three hyperedges, matched middle first. The
// last position must not overlap the degree-12 end bound before it
// (Step.Disc) and is counted, not iterated: that end's degree-3 neighbours
// are marked once per binding of it, and the middle's group counts as
// |group| − #(group ∩ mark).
func BenchmarkMineChain(b *testing.B) {
	benchMine(b, "0 1 2; 0 3; 3 4 5 6 7 8 9 10 11 12 13 14")
}

// BenchmarkMinePair: two overlapping hyperedges — every embedding is a member
// of a DAL group, so the run is one group length per first-position binding.
func BenchmarkMinePair(b *testing.B) { benchMine(b, "0 1; 0 2 3 4") }

// BenchmarkMineTriangle: three hyperedges around one shared vertex, two of
// them sharing a second — a last step whose ops, s0 ← c0∩c2 and s0 ⊆ c1,
// count as |c2 ∩ (c0∩c1)| = 1. c0's group is marked once per c0 and each
// c1's group filtered through it; the overlap c0∩c1 is marked once per
// (c0, c1) and each candidate counts its vertices in it.
func BenchmarkMineTriangle(b *testing.B) { benchMine(b, "0 1 2; 0 1 3; 0 4 5") }

// cliqueBlock is a dense block of 36 hyperedges that share a core of 64
// vertices and have one private vertex each: any j of them match the core
// j-clique, k!/(k-j)! ordered times.
func cliqueBlock(tb testing.TB) (*Store, [][]uint32) {
	const core, k = 64, 36
	block := make([][]uint32, k)
	for i := range block {
		for v := uint32(0); v < core; v++ {
			block[i] = append(block[i], v)
		}
		block[i] = append(block[i], core+uint32(i))
	}
	h, err := BuildHypergraph(core+k, block, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return NewStore(h), block
}

// orderedCliques is k!/(k-j)!, the ordered j-cliques of a block of k.
func orderedCliques(k, j uint64) uint64 {
	n := uint64(1)
	for i := uint64(0); i < j; i++ {
		n *= k - i
	}
	return n
}

// benchClique times the core j-clique on the block, on one worker.
func benchClique(b *testing.B, j int) {
	store, block := cliqueBlock(b)
	p, err := NewPattern(block[:j], nil)
	if err != nil {
		b.Fatal(err)
	}
	want := orderedCliques(uint64(len(block)), uint64(j))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Mine(store, p, WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Ordered != want {
			b.Fatalf("%d ordered %d-cliques, want %d", res.Ordered, j, want)
		}
	}
}

// BenchmarkMineClique4: four hyperedges sharing a core of 64 vertices on a
// block of 36 such hyperedges. Step 2's list, (c0, c1)'s common neighbours
// that hold the core c0 ∩ c1, is one node built and marked per (c0, c1); the
// last position counts AdjSet(c2)'s members above c2 in that mark per binding
// of c2.
func BenchmarkMineClique4(b *testing.B) { benchClique(b, 4) }

// BenchmarkMineClique5: the 5-clique on the same block — a two-level chain:
// the (c0, c1) node, the (c0, c1, c2) node that step 3 lists and the last
// position continues from, and one count per binding of c3.
func BenchmarkMineClique5(b *testing.B) { benchClique(b, 5) }

// TestCliqueClosedForm: the core cliques of three to five hyperedges on the
// block, whose middle steps share chain nodes with their last, count
// k!/(k-j)! ordered and that over j! unique embeddings, restricted or not.
func TestCliqueClosedForm(t *testing.T) {
	store, block := cliqueBlock(t)
	k := uint64(len(block))
	for _, c := range []struct {
		j     int
		nosym bool
	}{{3, false}, {4, false}, {5, false}, {3, true}, {4, true}} {
		p, err := NewPattern(block[:c.j], nil)
		if err != nil {
			t.Fatal(err)
		}
		opts := []Option{WithWorkers(2)}
		if c.nosym {
			opts = append(opts, WithoutSymmetryBreaking())
		}
		res, err := Mine(store, p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := orderedCliques(k, uint64(c.j))
		if res.Ordered != want || res.Unique != want/orderedCliques(uint64(c.j), uint64(c.j)) || res.Truncated {
			t.Fatalf("%d-clique nosym=%v: Ordered=%d Unique=%d truncated=%v, want %d/%d", c.j, c.nosym, res.Ordered, res.Unique, res.Truncated, want, want/orderedCliques(uint64(c.j), uint64(c.j)))
		}
	}
}
