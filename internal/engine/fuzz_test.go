package engine

import (
	"bytes"
	"errors"
	"testing"

	"ohminer/internal/checkpoint"
	"ohminer/internal/dal"
	"ohminer/internal/hypergraph"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// FuzzPlanVerify drives mutated snapshot bytes through the full resume
// verification stack: checkpoint.Decode (CRC + structural bounds) followed
// by ValidateSnapshot, which runs the IR verifier on the plan and compares
// fingerprints. The contract under fuzzing: never panic — every corrupt
// input must surface as checkpoint.ErrCorrupt, a version error, or a
// ValidateSnapshot diagnostic.
func FuzzPlanVerify(f *testing.F) {
	edges := make([][]uint32, 12)
	for i := range edges {
		edges[i] = []uint32{0, uint32(i + 1)}
	}
	store := dal.Build(hypergraph.MustBuild(13, edges, nil))
	p := pattern.MustNew([][]uint32{{0, 1}, {0, 2}}, nil)
	plan, err := CompilePlan(store, p, Options{})
	if err != nil {
		f.Fatal(err)
	}

	// Seed with a valid encoded snapshot so the fuzzer starts from bytes
	// that pass the CRC and explores mutations from there.
	valid := &checkpoint.Snapshot{
		Seq:     3,
		PlanFP:  PlanFingerprint(plan),
		GraphFP: store.Hypergraph().Fingerprint(),
		Ordered: 41,
		Stats:   PackStats(Stats{Candidates: 7, Embeddings: 41}),
		Frontier: []checkpoint.Task{
			{Depth: 1, Prefix: []uint32{2}, Cands: []uint32{3, 4, 5}},
			{Depth: 0, Prefix: nil, Cands: []uint32{9}},
		},
	}
	b, err := valid.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte{})
	f.Add([]byte("OHMC"))
	trunc := append([]byte(nil), b...)
	f.Add(trunc[:len(trunc)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := checkpoint.Decode(bytes.NewReader(data))
		if err != nil {
			if snap != nil {
				t.Fatalf("Decode returned both a snapshot and error %v", err)
			}
			return // corrupt or wrong version: rejected, as required
		}
		// CRC-valid bytes: the semantic validator must still accept or
		// reject without panicking, and the plan itself must verify.
		if verr := ValidateSnapshot(store, plan, snap); verr != nil {
			if errors.Is(verr, oig.ErrInvalidPlan) {
				t.Fatalf("freshly compiled plan reported invalid: %v", verr)
			}
			return // snapshot rejected with a diagnostic
		}
	})
}
