package engine

// Crash-safe checkpoint/resume support. A long mining run periodically
// quiesces its workers at a safe point (the per-candidate stop check they
// already pay for), captures the global frontier — every unexplored subtree
// task, i.e. the queued deque/overflow tasks plus the remainder each worker
// walked away from while unwinding — together with the partial counters,
// and hands the snapshot to the configured checkpoint.Sink. The frontier
// tasks partition the unexplored search space exactly, so the counts of a
// resumed run are provably neither lost nor double-counted: every ordered
// embedding is either already in Snapshot.Ordered or reachable from exactly
// one frontier task.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ohminer/internal/checkpoint"
	"ohminer/internal/dal"
	"ohminer/internal/oig"
)

// ErrWrongPlan is returned, wrapped, for a snapshot or lease whose plan
// fingerprint is not the plan's it would resume on: its frontier was cut for
// another pattern, labels or matching order, or by a build whose compiler
// placed other conditions, so its candidate ranges are not lists this plan
// would have kept.
var ErrWrongPlan = errors.New("engine: snapshot was written for a different plan")

// PlanFingerprint hashes everything that fixes the meaning of a frontier
// task. It delegates to the plan verifier's semantic fingerprint, which
// covers the pattern structure rendered in matching order, the vertex and
// hyperedge labels, the matching-order permutation, the plan mode, and every
// compiled step and condition that affects counting. A snapshot resumed
// against a plan with a different fingerprint would interpret bound prefixes
// against the wrong positions (or explore ranges the plan would not have
// kept), so resume refuses it; the cluster coordinator stamps the snapshots
// it leases out with it, so workers get the same protection. Compilation is
// deterministic, so two nodes compiling the same (pattern, mode, order)
// agree on the fingerprint.
func PlanFingerprint(plan *oig.Plan) uint64 {
	return oig.Fingerprint(plan)
}

// PackStats flattens the Stats counters into the opaque slice snapshots and
// cluster task reports carry; UnpackStats inverts it. The order is part of
// the snapshot format (bump checkpoint.Version when it changes); new
// counters are appended at the end, which UnpackStats tolerates missing, so
// old snapshots resume with those counters zeroed instead of failing. Slots
// 3-6 held the HGMatch redundancy counters, which left with that baseline
// (internal/baseline): they are written as zeros and ignored on read, so
// snapshots stay exchangeable with builds that still count them.
func PackStats(s Stats) []uint64 {
	return []uint64{
		s.Candidates, s.Embeddings, s.SetOps,
		0, 0, 0, 0,
		uint64(s.GenTime), uint64(s.ValTime),
		s.Publishes, s.Steals, s.IdleSpins,
		s.Checkpoints, s.CheckpointBytes, s.CheckpointErrors,
		s.KernelArray, s.KernelBitmap, s.KernelMixed,
	}
}

// UnpackStats is the inverse of PackStats.
func UnpackStats(vs []uint64) Stats {
	var s Stats
	dst := []*uint64{
		&s.Candidates, &s.Embeddings, &s.SetOps,
		nil, nil, nil, nil, // retired slots, see PackStats
		nil, nil, // GenTime/ValTime handled below
		&s.Publishes, &s.Steals, &s.IdleSpins,
		&s.Checkpoints, &s.CheckpointBytes, &s.CheckpointErrors,
		&s.KernelArray, &s.KernelBitmap, &s.KernelMixed,
	}
	for i, v := range vs {
		if i >= len(dst) {
			break
		}
		switch {
		case i == 7:
			s.GenTime = time.Duration(v)
		case i == 8:
			s.ValTime = time.Duration(v)
		case dst[i] != nil:
			*dst[i] = v
		}
	}
	return s
}

// ValidateSnapshot checks that snap can be resumed against (store, plan):
// matching fingerprints plus structural bounds on every frontier task, so a
// snapshot that passed its CRC but was written for different inputs (or
// hand-edited) is rejected with a descriptive error instead of causing
// out-of-range panics during mining.
func ValidateSnapshot(store *dal.Store, plan *oig.Plan, snap *checkpoint.Snapshot) error {
	// Verify the plan itself before trusting the snapshot's fingerprint
	// comparison: a plan corrupted after compilation (or a miscompiled one)
	// must be rejected with the verifier's diagnostic rather than mine to a
	// silent miscount.
	if err := oig.VerifyProgram(plan); err != nil {
		return fmt.Errorf("engine: refusing to resume onto an invalid plan: %w", err)
	}
	if got, want := snap.PlanFP, PlanFingerprint(plan); got != want {
		return fmt.Errorf("%w (fingerprint %#x, want %#x): pattern, labels, matching order and the plan's conditions must all match", ErrWrongPlan, got, want)
	}
	if got, want := snap.GraphFP, store.Hypergraph().Fingerprint(); got != want {
		return fmt.Errorf("engine: snapshot was written for a different data hypergraph (fingerprint %#x, want %#x)", got, want)
	}
	if plan.Restricted {
		// Restricted plans count whole orbits: a valid snapshot's ordered
		// total is always a multiple of |Aut|. A remainder means the counter
		// was corrupted or written in a different counting space.
		if aut := uint64(plan.Pattern.Automorphisms()); snap.Ordered%aut != 0 {
			return fmt.Errorf("engine: snapshot Ordered=%d is not a multiple of the pattern's %d automorphisms; a symmetry-broken run counts whole orbits, so the counter is corrupt or from an incompatible counting space", snap.Ordered, aut)
		}
	}
	m := plan.Pattern.NumEdges()
	ne := uint32(store.Hypergraph().NumEdges())
	for i := range snap.Frontier {
		t := &snap.Frontier[i]
		if int(t.Depth) >= m {
			return fmt.Errorf("engine: snapshot frontier task %d at depth %d exceeds the %d-hyperedge pattern", i, t.Depth, m)
		}
		if len(t.Prefix) != int(t.Depth) {
			return fmt.Errorf("engine: snapshot frontier task %d has a %d-long prefix for depth %d", i, len(t.Prefix), t.Depth)
		}
		for _, id := range t.Prefix {
			if id >= ne {
				return fmt.Errorf("engine: snapshot frontier task %d binds hyperedge %d, beyond the %d hyperedges of the data", i, id, ne)
			}
		}
		for _, id := range t.Cands {
			if id >= ne {
				return fmt.Errorf("engine: snapshot frontier task %d lists candidate %d, beyond the %d hyperedges of the data", i, id, ne)
			}
		}
	}
	return nil
}

// ResumeWithPlanContext continues the interrupted run the snapshot captured,
// on the plan the snapshot fingerprints (CompilePlan with the original
// run's pattern and options). The returned Result accumulates on top of the
// snapshot's counters: its Ordered includes every embedding counted before
// the crash, so a resumed run that finishes reports the same totals as an
// uninterrupted one.
func ResumeWithPlanContext(ctx context.Context, store *dal.Store, plan *oig.Plan, snap *checkpoint.Snapshot, opts Options) (Result, error) {
	if snap == nil {
		return Result{}, errors.New("engine: resume needs a snapshot")
	}
	if err := ValidateSnapshot(store, plan, snap); err != nil {
		return Result{}, err
	}
	if err := validateRun(store, plan, opts); err != nil {
		return Result{}, err
	}
	return mineFrontier(ctx, store, plan, opts, snap)
}

// buildSnapshot assembles the serializable snapshot for the current quiesce
// point.
func (e *shared) buildSnapshot(seq uint64, frontier []checkpoint.Task, ordered uint64, stats Stats) *checkpoint.Snapshot {
	return &checkpoint.Snapshot{
		Seq:      seq,
		PlanFP:   PlanFingerprint(e.plan),
		GraphFP:  e.store.Hypergraph().Fingerprint(),
		Ordered:  ordered,
		Stats:    PackStats(stats),
		Frontier: frontier,
	}
}

// collectFrontier gathers every unexplored subtree after a quiesce: the
// remainders each worker saved while unwinding, plus whatever never left the
// scheduler — its queued deque and overflow tasks. Together these partition
// the unexplored search space.
func collectFrontier(ws []*worker, sched *scheduler) []checkpoint.Task {
	var out []checkpoint.Task
	for _, w := range ws {
		out = append(out, w.saved...)
		w.saved = nil
	}
	for i := range sched.deques {
		out = sched.deques[i].drainTasks(out)
	}
	sched.ovMu.Lock()
	out = append(out, sched.overflow...)
	sched.overflow = nil
	sched.ovMu.Unlock()
	return out
}
