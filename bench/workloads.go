package main

// workloads lists the benchmark's workloads; BENCHMARK.json mirrors the names
// and reasons (a test compares them).
var workloads = []workload{
	{"mine_sparse", "sampled P2/P3 patterns on the sparse power-law TC preset: the paper's method; every set operation runs on the array and gallop kernels, over many small search subtrees", setupMineSparse},
	{"mine_dense", "closed-form clique and hub patterns on a contiguous-ID block hypergraph: set ops run on the bitmap and mixed kernels and validation dominates", setupMineDense},
	{"serve_mix", "4 % cold, 26 % plan-cached and 70 % result-cached POST /query over loopback HTTP: the engine does little; parser, canonicalizer, compiler, Session caches, JSON and net/http do the rest", setupServeMix},
	{"stream_window", "sliding-window batches over HTTP with three standing queries, a durable snapshot per batch and SSE delivery: incremental maintenance, anchored enumeration, fsync and push dominate", setupStreamWindow},
	{"cluster_job", "jobs of 8 leased parts through a durable coordinator and two in-process workers: the lease protocol, checkpoint snapshots on the wire and WAL fsyncs make the difference to mine_sparse", setupClusterJob},
}
