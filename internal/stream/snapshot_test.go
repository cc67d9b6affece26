package stream

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ohminer/internal/durable"
	"ohminer/internal/engine"
	"ohminer/internal/faultinject"
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

// TestSnapshotCadence: snapshots land on the configured cadence and the
// MemSink sees monotone epochs.
func TestSnapshotCadence(t *testing.T) {
	sink := &durable.MemSink[*Snapshot]{}
	m := buildStream(t, Config{Snapshot: sink, SnapshotEvery: 2}, 6, 3)
	if sink.Writes() == 0 {
		t.Fatal("no snapshots written")
	}
	// Force one more and reload from it.
	if err := m.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	s, err := Unmarshal(sink.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Load(s, Config{})
	if err != nil {
		t.Fatal(err)
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

// TestSnapshotFileAtomic: a FileSink leaves no temp droppings and ReadFile
// round-trips.
func TestSnapshotFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ohmt")
	m := buildStream(t, Config{}, 3, 3)
	if _, err := (&durable.FileSink[*Snapshot]{Path: path}).WriteSnapshot(m.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("stray files: %v", ents)
	}
	m2, err := LoadFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	minersEquivalent(t, m, m2)
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

// TestSnapshotFailurePoisonsAck: when the sink fails on the cadence write,
// ApplyBatch surfaces the error so callers do not ack durability they
// don't have, while in-memory state stays usable for retry.
func TestSnapshotFailureSurfaced(t *testing.T) {
	fail := &faultinject.NoSpaceSink[*Snapshot]{}
	m, err := NewMiner(Config{NumVertices: 6, Snapshot: fail, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyBatch(Batch{Add: [][]uint32{{0, 1}}}); err == nil {
		t.Fatal("snapshot failure not surfaced")
	}
	// State applied in memory; a later forced snapshot to a good sink works.
	if m.Epoch() != 1 || m.LiveEdges() != 1 {
		t.Fatalf("state lost: epoch %d live %d", m.Epoch(), m.LiveEdges())
	}
}

// TestChaosStreamCrashResume is the fault-injection drill from the issue:
// SIGKILL (modeled as abandoning the miner) mid-stream right after a
// durable snapshot, reload from disk, replay the feed idempotently, and
// prove the per-query cumulative counts are exactly-once — equal to an
// uninterrupted control run and to a from-scratch mine.
func TestChaosStreamCrashResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.ohmt")
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)

	// Pre-script the whole feed so control and crashed runs see identical
	// batches (retire choices must not depend on run-specific live order).
	const nv, nBatches = 12, 8
	rng := rand.New(rand.NewSource(99))
	feed := make([]Batch, nBatches)
	var window [][]uint32
	for i := range feed {
		feed[i] = Batch{Seq: uint64(i + 1), Add: randRaw(rng, nv, 3)}
		for _, raw := range feed[i].Add {
			if e, err := normalize(raw, nv); err == nil {
				window = append(window, e)
			}
		}
		if i > 0 && len(window) > 4 {
			feed[i].Retire = [][]uint32{window[0]}
			window = window[1:]
		}
	}
	run := func(m *Miner, from int) {
		for i := from; i < nBatches; i++ {
			if _, err := m.ApplyBatch(feed[i]); err != nil && !errors.Is(err, ErrStale) {
				t.Fatalf("batch %d: %v", i+1, err)
			}
		}
	}

	// Control: uninterrupted.
	control, err := NewMiner(Config{NumVertices: nv})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := control.RegisterQuery(p); err != nil {
		t.Fatal(err)
	}
	run(control, 0)

	// Victim: crash after the 3rd successful snapshot write (cadence 1 →
	// after batch 3, but registration also persists, so count writes).
	crashed := false
	sink := &faultinject.CrashSink[*Snapshot]{
		Inner:   &durable.FileSink[*Snapshot]{Path: path},
		After:   4,
		OnCrash: func() { crashed = true },
	}
	victim, err := NewMiner(Config{NumVertices: nv, Snapshot: sink, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.RegisterQuery(p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nBatches && !crashed; i++ {
		if _, err := victim.ApplyBatch(feed[i]); err != nil {
			t.Fatalf("victim batch %d: %v", i+1, err)
		}
	}
	if !crashed {
		t.Fatal("crash never fired")
	}
	// victim is abandoned here — the SIGKILL. Resume from disk and replay
	// the ENTIRE feed: already-applied batches answer ErrStale, the rest
	// apply.
	resumed, err := LoadFile(path, Config{NumVertices: nv, Snapshot: &durable.FileSink[*Snapshot]{Path: path}, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	run(resumed, 0)
	minersEquivalent(t, control, resumed)

	// And the resumed totals equal a from-scratch mine of the live graph.
	want := oracle(t, nv, resumed.LiveEdgeSets(), p, engine.Options{})
	q := resumed.Queries()[0]
	if q.Total != want {
		t.Fatalf("resumed total %d, oracle %d", q.Total, want)
	}

	// Torn-snapshot leg: a non-atomic writer tears the file; the loader
	// must refuse it rather than resume from garbage.
	torn := filepath.Join(dir, "torn.ohmt")
	snap := resumed.SnapshotState()
	good, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ts := &faultinject.TornSink[*Snapshot]{Path: torn, TearAt: 1, TearBytes: len(good) / 2}
	if _, err := ts.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(torn, Config{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn snapshot: %v", err)
	}
}
