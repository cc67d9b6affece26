package main

import (
	"os"
	"path/filepath"
	"time"

	"ohminer"
	"ohminer/internal/intset"
)

// perLayer lists the metrics of the traced run, one block per module of the
// repo. BENCHMARK.json mirrors this table (a test compares them). They are
// not gated; README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "pattern.parse_us", Unit: "us", Better: "lower"},
	{Name: "pattern.canon_us", Unit: "us", Better: "lower"},
	{Name: "oig.compile_us", Unit: "us", Better: "lower"},
	{Name: "oig.plan_ops", Unit: "count", Better: "lower"},
	{Name: "oig.restricted_share", Unit: "ratio", Better: "higher"},
	{Name: "hypergraph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "dal.build_ms", Unit: "ms", Better: "lower"},
	{Name: "dal.save_ms", Unit: "ms", Better: "lower"},
	{Name: "dal.load_ms", Unit: "ms", Better: "lower"},
	{Name: "dal.mem_mb", Unit: "MB", Better: "lower"},
	{Name: "dal.file_mb", Unit: "MB", Better: "lower"},
	{Name: "intset.ops_array", Unit: "count", Better: "lower"},
	{Name: "intset.ops_bitmap", Unit: "count", Better: "lower"},
	{Name: "intset.ops_mixed", Unit: "count", Better: "lower"},
	{Name: "intset.bitmap_share", Unit: "ratio", Better: "higher"},
	{Name: "intset.isect_array_ns", Unit: "ns", Better: "lower"},
	{Name: "intset.isect_bitmap_ns", Unit: "ns", Better: "lower"},
	{Name: "intset.isect_mixed_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.mine_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.gen_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.val_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.candidates", Unit: "count", Better: "lower"},
	{Name: "engine.setops", Unit: "count", Better: "lower"},
	{Name: "engine.embeddings", Unit: "count", Better: "higher"},
	{Name: "engine.emb_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.setops_per_emb", Unit: "ratio", Better: "lower"},
	{Name: "engine.steals", Unit: "count", Better: "lower"},
	{Name: "engine.publishes", Unit: "count", Better: "lower"},
	{Name: "engine.idle_spins", Unit: "count", Better: "lower"},
	{Name: "engine.w1_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.par_eff", Unit: "ratio", Better: "higher"},
	{Name: "engine.tiny_run_us", Unit: "us", Better: "lower"},
	{Name: "session.plan_hits", Unit: "count", Better: "higher"},
	{Name: "session.plan_misses", Unit: "count", Better: "lower"},
	{Name: "session.result_hits", Unit: "count", Better: "higher"},
	{Name: "session.result_misses", Unit: "count", Better: "lower"},
	{Name: "session.cold_ms", Unit: "ms", Better: "lower"},
	{Name: "session.planhit_us", Unit: "us", Better: "lower"},
	{Name: "session.resulthit_us", Unit: "us", Better: "lower"},
	{Name: "serve.cold_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.plan_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.hit_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "stream.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.maintain_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.snapshot_kb", Unit: "KB", Better: "lower"},
	{Name: "stream.sse_lag_us", Unit: "us", Better: "lower"},
	{Name: "stream.expired_edges", Unit: "count", Better: "lower"},
	{Name: "stream.compactions", Unit: "count", Better: "lower"},
	{Name: "stream.seed_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.register_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.load_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.leases", Unit: "count", Better: "lower"},
	{Name: "cluster.lease_rtt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.report_rtt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.heartbeats", Unit: "count", Better: "lower"},
	{Name: "cluster.admit_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.wal_records", Unit: "count", Better: "lower"},
	{Name: "cluster.wal_kb", Unit: "KB", Better: "lower"},
	{Name: "cluster.wal_compactions", Unit: "count", Better: "lower"},
	{Name: "cluster.idle_polls", Unit: "count", Better: "lower"},
	{Name: "cluster.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.lease_kb", Unit: "KB", Better: "lower"},
	{Name: "checkpoint.decode_us", Unit: "us", Better: "lower"},
	{Name: "bench.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
	{Name: "bench.layer_sum_ratio", Unit: "ratio", Better: "higher"},
}

// dataset is the data store a workload mines, with what its set-up cost.
type dataset struct {
	h      *ohminer.Hypergraph
	store  *ohminer.Store
	memMB  float64
	fileMB float64
}

// buildDataset is the set-up the store-based workloads share: make the
// hypergraph, build the degree-aware store, persist it and load it back (the
// loaded copy is the one mined, as in a process started from a saved store).
func buildDataset(e *env, build func() (*ohminer.Hypergraph, error)) (*dataset, error) {
	root := e.tr.begin("bench.setup", -1, -1)
	defer e.tr.end(root)
	sp := e.tr.begin("hypergraph.build", root, -1)
	h, err := build()
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = e.tr.begin("dal.build", root, -1)
	built := ohminer.NewStore(h)
	e.tr.end(sp)
	path := filepath.Join(e.dir, "store.ohmd")
	sp = e.tr.begin("dal.save", root, -1)
	err = ohminer.SaveStore(built, path)
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = e.tr.begin("dal.load", root, -1)
	store, err := ohminer.LoadStore(path, h)
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return &dataset{h: h, store: store,
		memMB:  float64(store.MemoryBytes()) / (1 << 20),
		fileMB: float64(fi.Size()) / (1 << 20)}, nil
}

func presetDataset(e *env, tag string) (*dataset, error) {
	return buildDataset(e, func() (*ohminer.Hypergraph, error) {
		ps, err := ohminer.DatasetPresetByTag(tag)
		if err != nil {
			return nil, err
		}
		return ohminer.GenerateDataset(ps.Config)
	})
}

// setupMetrics turns the set-up spans into the build/save/load metrics.
func setupMetrics(tr *tracer, m metrics) {
	for _, s := range tr.spans {
		d := ms(time.Duration(s.End - s.Start))
		switch s.Name {
		case "hypergraph.build":
			m["hypergraph.build_ms"] = d
		case "dal.build":
			m["dal.build_ms"] = d
		case "dal.save":
			m["dal.save_ms"] = d
		case "dal.load":
			m["dal.load_ms"] = d
		}
	}
}

func (ds *dataset) metrics(m metrics) {
	m["dal.mem_mb"] = ds.memMB
	m["dal.file_mb"] = ds.fileMB
	intsetMetrics(ds.store, m)
}

// intsetSink keeps the timed intersections from being optimized away.
var intsetSink int

// intsetMetrics times the adaptive intersection kernel directly on operands
// taken from the workload's own store: vertex sets of adjacent hyperedges,
// grouped by the kernel class the pair runs on.
func intsetMetrics(store *ohminer.Store, m metrics) {
	const perClass = 512
	var pairs [3][][2]intset.Set
	h := store.Hypergraph()
	n := uint32(h.NumEdges())
	stride := n/4096 + 1
	for e := uint32(0); e < n; e += stride {
		a := store.EdgeVertexSet(e)
		for _, nb := range store.Adj(e) {
			b := store.EdgeVertexSet(nb)
			c := intset.Classify(a, b)
			if len(pairs[c]) < perClass {
				pairs[c] = append(pairs[c], [2]intset.Set{a, b})
			}
		}
	}
	names := map[intset.PairClass]string{
		intset.ClassArray:  "intset.isect_array_ns",
		intset.ClassBitmap: "intset.isect_bitmap_ns",
		intset.ClassMixed:  "intset.isect_mixed_ns",
	}
	for c, name := range names {
		ps := pairs[c]
		if len(ps) == 0 {
			continue
		}
		best := time.Duration(1 << 62)
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			for it := 0; it < 20; it++ {
				for _, p := range ps {
					intsetSink += intset.IntersectCountSetsAdaptive(p[0], p[1])
				}
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		m[name] = float64(best) / float64(20*len(ps))
	}
}

// engineMetrics turns summed engine counters into the engine and intset
// count metrics. elapsed is the summed Result.Elapsed of the same runs.
func engineMetrics(st ohminer.Stats, ordered uint64, elapsed time.Duration, m metrics) {
	m["engine.mine_ms"] = ms(elapsed)
	m["engine.candidates"] = float64(st.Candidates)
	m["engine.setops"] = float64(st.SetOps)
	m["engine.embeddings"] = float64(ordered)
	if elapsed > 0 {
		m["engine.emb_per_s"] = float64(ordered) / elapsed.Seconds()
	}
	if ordered > 0 {
		m["engine.setops_per_emb"] = float64(st.SetOps) / float64(ordered)
	}
	if tot := st.GenTime + st.ValTime; tot > 0 {
		m["engine.gen_share"] = float64(st.GenTime) / float64(tot)
		m["engine.val_share"] = float64(st.ValTime) / float64(tot)
	}
	m["intset.ops_array"] = float64(st.KernelArray)
	m["intset.ops_bitmap"] = float64(st.KernelBitmap)
	m["intset.ops_mixed"] = float64(st.KernelMixed)
	if k := st.KernelArray + st.KernelBitmap + st.KernelMixed; k > 0 {
		m["intset.bitmap_share"] = float64(st.KernelBitmap+st.KernelMixed) / float64(k)
	}
}
