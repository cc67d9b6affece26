package engine

// Frontiers: every run starts from a frontier of checkpoint.Tasks. A fresh
// run's is its first pattern hyperedge's candidates split into at most
// Workers contiguous depth-0 tasks (partition); MineSeeded's is the same
// split over the seeds it is given; a resumed run's is the snapshot's. A
// cluster coordinator builds the same depth-0 frontier with Frontier and
// ships each task to a worker as an OHMC snapshot (the checkpoint wire
// format). The tasks partition the search space, so per-task counts merged
// exactly once equal the single-node total — the invariant checkpoint/resume
// rests on.

import (
	"context"
	"slices"

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

// Frontier splits the first pattern hyperedge's candidates — every data
// hyperedge passing its degree and label constraints — into at most parts
// contiguous depth-0 tasks of near-equal candidate count. Each task is
// independently minable (ResumeWithPlanContext over a snapshot holding just
// that task), and together they cover the candidates exactly once. The tasks
// own their candidates: they are safe to retain and to encode.
func Frontier(store *dal.Store, plan *oig.Plan, parts int) []checkpoint.Task {
	// firstCandidates may return the DAL's shared degree-index storage.
	return partition(slices.Clone(firstCandidates(store, plan, Options{})), parts)
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
	first := admitFirst(store, plan, opts, pool)
	return mineFrontier(context.Background(), store, plan, opts, &checkpoint.Snapshot{Frontier: partition(first, workerCount(opts))})
}

// partition splits cands into at most parts contiguous depth-0 tasks of
// near-equal length. The tasks are views of cands, capped so that an append
// to one cannot reach the next.
func partition(cands []uint32, parts int) []checkpoint.Task {
	if len(cands) == 0 {
		return nil
	}
	parts = min(max(parts, 1), len(cands))
	per := (len(cands) + parts - 1) / parts
	out := make([]checkpoint.Task, 0, parts)
	for i := 0; i < len(cands); i += per {
		end := min(i+per, len(cands))
		out = append(out, checkpoint.Task{Cands: cands[i:end:end]})
	}
	return out
}
