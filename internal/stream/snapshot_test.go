package stream

import (
	"errors"
	"math/rand"
	"testing"

	"ohminer/internal/pattern"
)

// buildStream feeds a deterministic scripted stream (adds + retires) into a
// fresh miner with two standing queries and returns it.
func buildStream(t *testing.T, cfg Config, batches int, seed int64) *Miner {
	t.Helper()
	cfg.NumVertices = 14
	m, err := NewMiner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterQuery(pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	if _, err := m.ApplyBatch(Batch{Seq: 1, Add: randRaw(rng, 14, 8)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterQuery(pattern.MustNew([][]uint32{{0, 1, 2}, {2, 3}}, nil)); err != nil {
		t.Fatal(err)
	}
	for b := 2; b <= batches; b++ {
		batch := Batch{Seq: uint64(b), Add: randRaw(rng, 14, 3)}
		if live := m.LiveEdgeSets(); len(live) > 2 {
			batch.Retire = live[:1]
		}
		if _, err := m.ApplyBatch(batch); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	return m
}

func minersEquivalent(t *testing.T, a, b *Miner) {
	t.Helper()
	if a.Epoch() != b.Epoch() || a.LiveEdges() != b.LiveEdges() {
		t.Fatalf("epoch/live mismatch: %d/%d vs %d/%d", a.Epoch(), a.LiveEdges(), b.Epoch(), b.LiveEdges())
	}
	qa, qb := a.Queries(), b.Queries()
	if len(qa) != len(qb) {
		t.Fatalf("query count %d vs %d", len(qa), len(qb))
	}
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("query %d: %+v vs %+v", i, qa[i], qb[i])
		}
	}
}

// TestSnapshotRoundtrip: Marshal → Unmarshal → Load reproduces the miner,
// and both copies stay in lockstep on further batches.
func TestSnapshotRoundtrip(t *testing.T) {
	m := buildStream(t, Config{Window: 5}, 6, 11)
	b, err := m.SnapshotState().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Load(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	minersEquivalent(t, m, m2)

	// Continue both with the same feed; they must remain identical,
	// including window expiries driven by the restored add epochs.
	rng := rand.New(rand.NewSource(77))
	for b := 0; b < 4; b++ {
		batch := Batch{Add: randRaw(rng, 14, 3)}
		if live := m.LiveEdgeSets(); len(live) > 1 {
			batch.Retire = live[:1]
		}
		r1, err := m.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("orig batch %d: %v", b, err)
		}
		r2, err := m2.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("restored batch %d: %v", b, err)
		}
		if r1.Expired != r2.Expired || len(r1.Deltas) != len(r2.Deltas) {
			t.Fatalf("batch %d diverged: %+v vs %+v", b, r1, r2)
		}
		for i := range r1.Deltas {
			d1, d2 := r1.Deltas[i], r2.Deltas[i]
			d1.ElapsedMS, d2.ElapsedMS = 0, 0
			if d1 != d2 {
				t.Fatalf("batch %d delta %d: %+v vs %+v", b, i, d1, d2)
			}
		}
	}
	minersEquivalent(t, m, m2)
}

// TestSnapshotCorruption: every truncation and every single-byte flip of a
// valid snapshot is refused with ErrCorrupt — never a panic, never a
// silently wrong miner.
func TestSnapshotCorruption(t *testing.T) {
	m := buildStream(t, Config{Window: 4}, 5, 23)
	valid, err := m.SnapshotState().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(valid); err != nil {
		t.Fatalf("valid snapshot refused: %v", err)
	}
	for cut := 0; cut < len(valid); cut++ {
		if _, err := Unmarshal(valid[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: %v", cut, err)
		}
	}
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x40
		if _, err := Unmarshal(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d accepted: %v", i, err)
		}
	}
}

// TestSnapshotValidateRejects: structurally well-framed but semantically
// invalid snapshots are refused by Validate via Load.
func TestSnapshotValidateRejects(t *testing.T) {
	base := func() *Snapshot {
		return &Snapshot{
			NumVertices: 6,
			Epoch:       2,
			NextQID:     2,
			Edges: []SnapshotEdge{
				{Verts: []uint32{0, 1}, AddEpoch: 1},
				{Verts: []uint32{1, 2}, AddEpoch: 2},
			},
			Queries: []SnapshotQuery{
				{ID: 1, BaseEpoch: 1, Base: 2, CumAdded: 2, CumRetired: 1, Pattern: "0 1;1 2"},
			},
		}
	}
	cases := []struct {
		name string
		mut  func(*Snapshot)
	}{
		{"vertex-out-of-range", func(s *Snapshot) { s.Edges[0].Verts = []uint32{0, 6} }},
		{"unsorted-edge", func(s *Snapshot) { s.Edges[0].Verts = []uint32{1, 0} }},
		{"dup-edge", func(s *Snapshot) { s.Edges[1].Verts = []uint32{0, 1} }},
		{"zero-add-epoch", func(s *Snapshot) { s.Edges[0].AddEpoch = 0 }},
		{"future-add-epoch", func(s *Snapshot) { s.Edges[0].AddEpoch = 3 }},
		{"query-id-zero", func(s *Snapshot) { s.Queries[0].ID = 0 }},
		{"query-id-beyond-next", func(s *Snapshot) { s.Queries[0].ID = 2 }},
		{"negative-total", func(s *Snapshot) { s.Queries[0].CumRetired = 99 }},
		{"bad-pattern", func(s *Snapshot) { s.Queries[0].Pattern = "not a pattern" }},
		{"future-base-epoch", func(s *Snapshot) { s.Queries[0].BaseEpoch = 9 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(s)
			if _, err := Load(s, Config{}); err == nil {
				t.Fatal("accepted")
			}
		})
	}
	if _, err := Load(base(), Config{}); err != nil {
		t.Fatalf("baseline refused: %v", err)
	}
}
