package exp

import (
	"fmt"
	"runtime"
	"time"

	"ohminer/internal/baseline"
	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/hypergraph"
	"ohminer/internal/intset"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// The "kern" experiment is the set-kernel ablation: the same mining runs —
// in internal/baseline, the one place a kernel family can be chosen — on the
// scalar merge kernel, the galloping "fast" kernel (the static SIMD
// stand-in, cf. the paper's no-SIMD ablation), and the adaptive kernel that
// picks per operation among word-parallel bitmap windows, window probes, and
// galloping from the operands' actual containers; a fourth column runs the
// production engine, which calls the adaptive kernels directly, on the same
// plan. Three synthetic inputs pin the three density regimes: a sparse ring
// where every set is a tiny array (adaptive must not regress), a dense
// block-clique where every operand is bitmap-backed (the SWAR win), and a
// skewed input mixing huge windowed hyperedges with degree-2 pendants (the
// mixed probe win). Every input's embedding count has a closed form, and
// every kernel and the production engine must reproduce it.

func init() {
	register(Experiment{
		ID:    "kern",
		Title: "Set-kernel ablation: scalar vs gallop (fast) vs density-adaptive containers",
		Run:   runKern,
	})
}

// ringInput builds a cycle of r degree-2 hyperedges {i, i+1 mod r} and the
// 2-chain pattern. Adjacent ring edges share exactly one vertex, so the
// ordered count is 2r. Every vertex set and adjacency group is far below the
// window threshold: the adaptive kernel must stay on the array path.
func ringInput(r int) (*dal.Store, *pattern.Pattern, *oig.Plan, uint64, error) {
	edges := make([][]uint32, r)
	for i := 0; i < r; i++ {
		a, b := uint32(i), uint32((i+1)%r)
		if a > b {
			a, b = b, a
		}
		edges[i] = []uint32{a, b}
	}
	h, err := hypergraph.Build(r, edges, nil)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	p, err := pattern.New([][]uint32{{0, 1}, {1, 2}}, nil)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	plan, err := oig.CompileOrdered(p, oig.ModeMerged, []int{0, 1})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return dal.Build(h), p, plan, 2 * uint64(r), nil
}

// cliqueInput builds k hyperedges that all share the dense core {0..core-1}
// and differ in one private vertex, plus the matching triangle pattern
// (three core+private edges). Every pair and the triple overlap in exactly
// the core, so every ordered triple of distinct data edges matches:
// k·(k-1)·(k-2) embeddings. Vertex sets and adjacency groups are contiguous
// and large, so the adaptive kernel runs entirely on bitmap windows.
func cliqueInput(core, k int) (*dal.Store, *pattern.Pattern, *oig.Plan, uint64, error) {
	mk := func(private uint32) []uint32 {
		e := make([]uint32, core+1)
		for v := 0; v < core; v++ {
			e[v] = uint32(v)
		}
		e[core] = private
		return e
	}
	edges := make([][]uint32, k)
	for i := 0; i < k; i++ {
		edges[i] = mk(uint32(core + i))
	}
	h, err := hypergraph.Build(core+k, edges, nil)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	p, err := pattern.New([][]uint32{mk(uint32(core)), mk(uint32(core + 1)), mk(uint32(core + 2))}, nil)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	plan, err := oig.CompileOrdered(p, oig.ModeMerged, []int{0, 1, 2})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return dal.Build(h), p, plan, uint64(k) * uint64(k-1) * uint64(k-2), nil
}

// skewInput builds hubs pairs of dense hyperedges (A_h, B_h) sharing a
// contiguous core-vertex block and differing in one private vertex each,
// plus pendants degree-2 hyperedges per pair hanging off A_h's private
// vertex. The pattern is A∩B = core, A∩C = {A's private}, B∩C = ∅, so the
// ordered count is hubs·pendants (only A_h carries pendants; the swapped
// binding dies on generation). The hot operations are skewed across density
// classes: dense∩dense pair counts on bitmap windows, and huge∩tiny pendant
// checks on the mixed probe path.
func skewInput(core, hubs, pendants int) (*dal.Store, *pattern.Pattern, *oig.Plan, uint64, error) {
	stride := uint32(core + 2)
	leafBase := uint32(hubs) * stride
	edges := make([][]uint32, 0, 2*hubs+hubs*pendants)
	for h := 0; h < hubs; h++ {
		base := uint32(h) * stride
		a := make([]uint32, core+1)
		b := make([]uint32, core+1)
		for v := 0; v < core; v++ {
			a[v] = base + uint32(v)
			b[v] = base + uint32(v)
		}
		a[core] = base + uint32(core)
		b[core] = base + uint32(core) + 1
		edges = append(edges, a, b)
	}
	leaf := uint32(0)
	for h := 0; h < hubs; h++ {
		priv := uint32(h)*stride + uint32(core)
		for j := 0; j < pendants; j++ {
			edges = append(edges, []uint32{priv, leafBase + leaf})
			leaf++
		}
	}
	h, err := hypergraph.Build(int(leafBase)+hubs*pendants, edges, nil)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	pe := func(private uint32) []uint32 {
		e := make([]uint32, core+1)
		for v := 0; v < core; v++ {
			e[v] = uint32(v)
		}
		e[core] = private
		return e
	}
	p, err := pattern.New([][]uint32{pe(uint32(core)), pe(uint32(core + 1)), {uint32(core), uint32(core + 2)}}, nil)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	plan, err := oig.CompileOrdered(p, oig.ModeMerged, []int{0, 1, 2})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return dal.Build(h), p, plan, uint64(hubs) * uint64(pendants), nil
}

func runKern(c *Context, opts RunOpts) ([]*Table, error) {
	type input struct {
		name  string
		desc  string
		build func() (*dal.Store, *pattern.Pattern, *oig.Plan, uint64, error)
	}
	inputs := []input{
		{"sparse", "chain2 ring r=150000", func() (*dal.Store, *pattern.Pattern, *oig.Plan, uint64, error) { return ringInput(150000) }},
		{"dense", "triangle block-clique core=160 k=36", func() (*dal.Store, *pattern.Pattern, *oig.Plan, uint64, error) { return cliqueInput(160, 36) }},
		{"skewhub", "pair+pendant core=256 hubs=5000 pendants=10", func() (*dal.Store, *pattern.Pattern, *oig.Plan, uint64, error) { return skewInput(256, 5000, 10) }},
	}
	repeats := 3
	if opts.Quick {
		inputs = []input{
			{"sparse", "chain2 ring r=25000", func() (*dal.Store, *pattern.Pattern, *oig.Plan, uint64, error) { return ringInput(25000) }},
			{"dense", "triangle block-clique core=64 k=16", func() (*dal.Store, *pattern.Pattern, *oig.Plan, uint64, error) { return cliqueInput(64, 16) }},
			{"skewhub", "pair+pendant core=96 hubs=600 pendants=8", func() (*dal.Store, *pattern.Pattern, *oig.Plan, uint64, error) { return skewInput(96, 600, 8) }},
		}
		repeats = 2
	}

	kernels := []intset.Kernel{intset.Scalar, intset.Fast, intset.Adaptive}

	t := &Table{
		Title:  "Kernel ablation: scalar merge vs gallop (fast) vs adaptive containers",
		Header: []string{"input", "scalar", "fast", "adaptive", "production", "fast/adaptive", "array", "bitmap", "mixed"},
		Notes: []string{
			"adaptive picks per operation among SWAR bitmap windows, window probes, and galloping from the operands' containers",
			"scalar/fast/adaptive run in internal/baseline, production is internal/engine (adaptive kernels, called directly) on the same plan",
			"array/bitmap/mixed are the production run's per-operation container classifications (engine.Stats)",
			"the plans carry symmetry-breaking restrictions (cells record restricted=true): these are the sym experiment's restricted runs, not its plain ones",
			"counts are verified against each input's closed form on every kernel and engine, so all agree exactly",
			"cells run one mining worker so kernel time is not masked by parallel speedup",
		},
	}
	for _, in := range inputs {
		store, _, plan, want, err := in.build()
		if err != nil {
			return nil, fmt.Errorf("kern: %s: %w", in.name, err)
		}
		start := time.Now()
		cell := CellRecord{
			Exp: "kern", Variant: "OHMiner", Dataset: in.name, Pattern: in.desc,
			Workers: 1, MaxProcs: runtime.GOMAXPROCS(0), Restricted: plan.Restricted,
		}
		row := []string{in.name}
		elapsed := make([]time.Duration, len(kernels))
		for i, k := range kernels {
			res, err := minBaseline(store, plan, baseline.Options{Workers: 1, Kernel: k}, repeats)
			if err != nil {
				return nil, fmt.Errorf("kern: %s/%s: %w", in.name, k.Name, err)
			}
			if res.Ordered != want {
				return nil, fmt.Errorf("kern: %s/%s counted %d ordered embeddings, want %d", in.name, k.Name, res.Ordered, want)
			}
			elapsed[i] = res.Elapsed
			row = append(row, ms(res.Elapsed))
			c := cell
			c.Kernel, c.Scheduler = k.Name, "first-level"
			c.ElapsedMs, c.Ordered = float64(res.Elapsed)/float64(time.Millisecond), res.Ordered
			opts.Recorder.Record(c)
		}
		prod, err := minMine(store, plan, engine.Options{Workers: 1}, repeats)
		if err != nil {
			return nil, fmt.Errorf("kern: %s/production: %w", in.name, err)
		}
		if prod.Ordered != want {
			return nil, fmt.Errorf("kern: %s/production counted %d ordered embeddings, want %d", in.name, prod.Ordered, want)
		}
		cell.Kernel, cell.Scheduler = "adaptive", "stealing"
		cell.ElapsedMs, cell.Ordered = float64(prod.Elapsed)/float64(time.Millisecond), prod.Ordered
		cell.KernelArray, cell.KernelBitmap, cell.KernelMixed = prod.Stats.KernelArray, prod.Stats.KernelBitmap, prod.Stats.KernelMixed
		opts.Recorder.Record(cell)
		t.AddRow(append(row, ms(prod.Elapsed), speedup(elapsed[1], elapsed[2]),
			fmt.Sprintf("%d", prod.Stats.KernelArray),
			fmt.Sprintf("%d", prod.Stats.KernelBitmap),
			fmt.Sprintf("%d", prod.Stats.KernelMixed))...)
		progressf("    kern/%-8s %d kernels in %v\n", in.name, len(kernels), time.Since(start).Round(time.Millisecond))
	}
	return []*Table{t}, nil
}
