package engine

// Task-range seeding: the pieces of the mining driver that the distributed
// layer (internal/cluster) needs as standalone steps. A single-node run
// compiles a plan, enumerates the candidates of the first pattern hyperedge,
// and explores them; a cluster coordinator performs exactly the first two
// steps, partitions the candidate pool into depth-0 frontier tasks, and
// ships each range to a worker as an OHMC snapshot (the checkpoint wire
// format). The frontier tasks partition the search space, so per-range
// counts merged exactly once equal the single-node total — the same
// invariant checkpoint/resume rests on, extracted from that machinery.

import (
	"context"
	"runtime"

	"ohminer/internal/checkpoint"
	"ohminer/internal/dal"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// CompilePlan compiles the execution plan Mine/MineContext would use for
// (store, p, opts): a merged plan in the matching order with the lowest
// estimated cost on the store (oig.ChooseOrder), a function of (p, store)
// alone. Extracted so checkpoint resume and cluster workers compile plans
// whose fingerprints provably match the original run's — a lease or snapshot
// produced against this plan validates against an independently compiled one
// on any node holding the same store.
func CompilePlan(store *dal.Store, p *pattern.Pattern, opts Options) (*oig.Plan, error) {
	return CompilePlanOrdered(p, oig.ChooseOrder(store, p, -1), opts)
}

// CompilePlanOrdered is CompilePlan with the matching order given by the
// caller (order[i] = index of the pattern hyperedge matched at position i).
// The streaming miner compiles its anchor-first delta plans through it, in
// oig.ChooseOrder's order with position 0 fixed at an automorphism orbit's
// smallest member.
func CompilePlanOrdered(p *pattern.Pattern, order []int, opts Options) (*oig.Plan, error) {
	return oig.CompileWith(p, oig.ModeMerged, oig.CompileOptions{
		Order: order,
		// Anchored counting (PositionFilter) must see every ordered tuple:
		// a restriction can kill the one orbit member the filter accepts.
		NoRestrictions: opts.NoSymmetryBreak || opts.PositionFilter != nil,
	})
}

// FirstCandidates enumerates the candidate pool of the first pattern
// hyperedge — every data hyperedge passing the degree, label, and
// PositionFilter constraints — exactly as the mining driver seeds it. The
// returned slice is freshly allocated and safe to retain or repartition.
func FirstCandidates(store *dal.Store, plan *oig.Plan, opts Options) []uint32 {
	cands := firstCandidates(store, plan, opts)
	// firstCandidates may return the DAL's shared degree-index storage when
	// no filtering applies; copy so callers own what they hold.
	return append([]uint32(nil), cands...)
}

// MineSeeded runs plan with matching-order position 0 bound only to the
// given data hyperedges instead of to every hyperedge of the position's
// degree: seeds that pass the position's degree, label and PositionFilter
// constraints become the depth-0 frontier the driver starts from, exactly as
// a resumed snapshot's or a cluster lease's frontier does, so the run's cost
// follows the seeds' neighbourhoods and not the size of the hypergraph. The
// streaming miner seeds its anchored delta runs with a batch's changed
// hyperedges. seeds must be distinct: a repeated ID is explored twice.
func MineSeeded(store *dal.Store, plan *oig.Plan, seeds []uint32, opts Options) (Result, error) {
	if err := validateRun(store, plan, opts); err != nil {
		return Result{}, err
	}
	h := store.Hypergraph()
	pool := make([]uint32, 0, len(seeds))
	for _, c := range seeds {
		if int(c) < h.NumEdges() && h.Degree(c) == plan.Steps[0].Degree {
			pool = append(pool, c)
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	snap := &checkpoint.Snapshot{Frontier: PartitionFrontier(admitFirst(store, plan, opts, pool), workers)}
	return mineResumable(context.Background(), store, plan, opts, snap)
}

// PartitionFrontier splits a first-position candidate pool into at most
// parts contiguous depth-0 frontier tasks of near-equal candidate count.
// Each task is independently minable (ResumeWithPlanContext over a snapshot
// holding just that task), and together they cover the pool exactly once.
func PartitionFrontier(cands []uint32, parts int) []checkpoint.Task {
	if len(cands) == 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > len(cands) {
		parts = len(cands)
	}
	per := (len(cands) + parts - 1) / parts
	out := make([]checkpoint.Task, 0, parts)
	for i := 0; i < len(cands); i += per {
		end := i + per
		if end > len(cands) {
			end = len(cands)
		}
		out = append(out, checkpoint.Task{
			Cands: append([]uint32(nil), cands[i:end]...),
		})
	}
	return out
}
