package stream

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ohminer/internal/durable"
	"ohminer/internal/engine"
	"ohminer/internal/faultinject"
	"ohminer/internal/pattern"
)

// streamFiles reads the base and the intact log records a FileSink at path
// holds.
func streamFiles(t *testing.T, path string) ([]byte, *Snapshot, [][]byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := durable.ReadLog(path+".log", logFormat)
	if err != nil {
		t.Fatal(err)
	}
	return b, base, recs
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// loadEquivalent reloads the files at path and checks the result against m.
func loadEquivalent(t *testing.T, m *Miner, path string) {
	t.Helper()
	loaded, err := LoadFile(path, Config{})
	if err != nil {
		t.Fatalf("reload at epoch %d: %v", m.Epoch(), err)
	}
	minersEquivalent(t, m, loaded)
}

// TestSnapshotCadence: the base-rewrite rule. The base is written when the
// miner opens and on every registration; a batch appends exactly one record
// and leaves the base alone, unless the log has outgrown the base, when the
// base is rewritten at the batch's epoch and the log emptied; the log never
// stays larger than the base. Whatever the split, the files reload to the
// miner.
func TestSnapshotCadence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ohmt")
	m, err := NewMiner(Config{NumVertices: 14, Window: 5, Snapshot: &FileSink{Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, base, recs := streamFiles(t, path); base.Epoch != 0 || len(recs) != 0 {
		t.Fatalf("a new miner's files: base epoch %d, %d records", base.Epoch, len(recs))
	}
	rng := rand.New(rand.NewSource(3))
	appends, rebases := 0, 0
	for b := uint64(1); b <= 40; b++ {
		if b == 1 || b == 20 {
			lit := [][]uint32{{0, 1}, {1, 2}}
			if b == 20 {
				lit = [][]uint32{{0, 1, 2}, {2, 3}}
			}
			if _, err := m.RegisterQuery(pattern.MustNew(lit, nil)); err != nil {
				t.Fatal(err)
			}
			if _, base, recs := streamFiles(t, path); base.Epoch != b-1 || len(recs) != 0 || len(base.Queries) != len(m.Queries()) {
				t.Fatalf("registration at epoch %d: base epoch %d with %d queries, %d records", b-1, base.Epoch, len(base.Queries), len(recs))
			}
		}
		before, _, recsBefore := streamFiles(t, path)
		batch := Batch{Seq: b, Add: randRaw(rng, 14, 3)}
		if live := m.LiveEdgeSets(); len(live) > 2 {
			batch.Retire = live[:1]
		}
		if _, err := m.ApplyBatch(batch); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		after, base, recs := streamFiles(t, path)
		switch {
		case bytes.Equal(before, after) && len(recs) == len(recsBefore)+1:
			appends++
		case base.Epoch == b && len(recs) == 0:
			rebases++
		default:
			t.Fatalf("batch %d: base epoch %d (changed %v), records %d → %d", b, base.Epoch, !bytes.Equal(before, after), len(recsBefore), len(recs))
		}
		if logSize := fileSize(t, path+".log"); logSize > int64(len(after)) {
			t.Fatalf("batch %d: the log (%d bytes) outgrew the base (%d) and stayed", b, logSize, len(after))
		}
		loadEquivalent(t, m, path)
	}
	if appends == 0 || rebases == 0 || appends < 3*rebases {
		t.Fatalf("%d appends and %d rebases over 40 batches", appends, rebases)
	}

	// Load starts compacted: its base holds everything, its log nothing.
	loaded, err := LoadFile(path, Config{Snapshot: &FileSink{Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if _, base, recs := streamFiles(t, path); base.Epoch != m.Epoch() || len(recs) != 0 {
		t.Fatalf("after Load: base epoch %d, %d records", base.Epoch, len(recs))
	}
	minersEquivalent(t, m, loaded)
}

// TestSnapshotRebaseCrashWindow: a crash after a base rewrite's rename but
// before its log truncate leaves the old records beside a base that already
// holds them. Replay skips them by epoch, so the files still load to the
// miner, and a record appended after them still applies.
func TestSnapshotRebaseCrashWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ohmt")
	m := buildStream(t, Config{Window: 4, Snapshot: &FileSink{Path: path}}, 1, 5)
	defer m.Close()
	rng := rand.New(rand.NewSource(5))
	for b := uint64(2); b <= 3; b++ {
		if _, err := m.ApplyBatch(Batch{Seq: b, Add: randRaw(rng, 14, 2)}); err != nil {
			t.Fatal(err)
		}
	}
	stale, err := os.ReadFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, recs := streamFiles(t, path); len(recs) != 2 {
		t.Fatalf("setup: %d records, want 2", len(recs))
	}
	if _, err := m.RegisterQuery(pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil)); err != nil {
		t.Fatal(err)
	}
	// Put back what the truncate removed: the crash.
	if err := os.WriteFile(path+".log", stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, base, _ := streamFiles(t, path); base.Epoch != 3 || len(base.Queries) != 3 {
		t.Fatalf("base at epoch %d with %d queries, want 3/3", base.Epoch, len(base.Queries))
	}
	loadEquivalent(t, m, path)
	if _, err := m.ApplyBatch(Batch{Seq: 4, Add: randRaw(rng, 14, 2)}); err != nil {
		t.Fatal(err)
	}
	if _, _, recs := streamFiles(t, path); len(recs) != 3 {
		t.Fatalf("%d records after the next batch, want the 2 stale ones and its own", len(recs))
	}
	loadEquivalent(t, m, path)
}

// TestSnapshotFileAtomic: a FileSink leaves its two files and nothing else
// — no temp droppings from the base's atomic replace — and they reload to
// the miner. Close releases them; the closed miner refuses work.
func TestSnapshotFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ohmt")
	m := buildStream(t, Config{Snapshot: &FileSink{Path: path}}, 6, 3)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name() != "s.ohmt" || ents[1].Name() != "s.ohmt.log" {
		t.Fatalf("files: %v", ents)
	}
	loadEquivalent(t, m, path)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyBatch(Batch{Add: [][]uint32{{0, 1}}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// chaosFeed scripts a windowed feed whose explicit retires name an edge the
// previous batch added, so every retire is valid whatever the window did.
func chaosFeed(nv, n int, seed int64) []Batch {
	rng := rand.New(rand.NewSource(seed))
	feed := make([]Batch, n)
	for i := range feed {
		feed[i] = Batch{Seq: uint64(i + 1), Add: randRaw(rng, nv, 3)}
		if i > 0 {
			feed[i].Retire = [][]uint32{feed[i-1].Add[0]}
		}
	}
	return feed
}

// chaosState is what an uninterrupted run shows after one epoch.
type chaosState struct {
	live    int
	queries []QueryInfo
}

func stateOf(m *Miner) chaosState { return chaosState{m.LiveEdges(), m.Queries()} }

func sameState(t *testing.T, what string, m *Miner, epoch uint64, want chaosState) {
	t.Helper()
	got := stateOf(m)
	if m.Epoch() != epoch || got.live != want.live || len(got.queries) != len(want.queries) {
		t.Fatalf("%s: epoch %d live %d queries %d, want %d/%d/%d", what, m.Epoch(), got.live, len(got.queries), epoch, want.live, len(want.queries))
	}
	for i := range got.queries {
		if got.queries[i] != want.queries[i] {
			t.Fatalf("%s: query %+v, want %+v", what, got.queries[i], want.queries[i])
		}
	}
}

// TestChaosStreamCrashResume is the stream log's fault table, on the
// io.Writer seam of its appends:
//
//   - kill: the process dies right after the k-th append, for every k of a
//     20-batch windowed feed; the files reload to epoch k, and replaying the
//     whole feed (ErrStale for what was applied) ends at the uninterrupted
//     totals, which equal a from-scratch mine;
//   - torn: the last record cut at every byte offset (a crash mid-append,
//     before the batch was acknowledged) loads the previous epoch;
//   - flip: a flipped byte in a complete record is ErrCorrupt.
func TestChaosStreamCrashResume(t *testing.T) {
	const nv, nBatches = 12, 20
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)
	feed := chaosFeed(nv, nBatches, 99)
	cfg := func(path string, wrap func(io.Writer) io.Writer) Config {
		return Config{NumVertices: nv, Window: 6, Snapshot: &FileSink{Path: path, wrap: wrap}}
	}
	run := func(m *Miner, feed []Batch) {
		t.Helper()
		for _, b := range feed {
			if _, err := m.ApplyBatch(b); err != nil && !errors.Is(err, ErrStale) {
				t.Fatalf("batch %d: %v", b.Seq, err)
			}
		}
	}

	control, err := NewMiner(Config{NumVertices: nv, Window: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := control.RegisterQuery(p); err != nil {
		t.Fatal(err)
	}
	want := []chaosState{stateOf(control)}
	for _, b := range feed {
		run(control, []Batch{b})
		want = append(want, stateOf(control))
	}

	for k := 1; k <= nBatches; k++ {
		path := filepath.Join(t.TempDir(), "s.ohmt")
		crashed := false
		victim, err := NewMiner(cfg(path, func(w io.Writer) io.Writer {
			return &faultinject.CrashWriter{W: w, After: k, OnCrash: func() { crashed = true }}
		}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := victim.RegisterQuery(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; !crashed; i++ {
			if _, err := victim.ApplyBatch(feed[i]); err != nil {
				t.Fatalf("kill after %d: victim batch %d: %v", k, i+1, err)
			}
		}
		victim.Close() // the SIGKILL: nothing after the k-th append lands
		resumed, err := LoadFile(path, cfg(path, nil))
		if err != nil {
			t.Fatalf("kill after %d: %v", k, err)
		}
		sameState(t, "resumed", resumed, uint64(k), want[k])
		run(resumed, feed)
		sameState(t, "replayed", resumed, nBatches, want[nBatches])
		resumed.Close()
	}
	if got, oracle := control.Queries()[0].Total, oracle(t, nv, control.LiveEdgeSets(), p, engine.Options{}); got != oracle {
		t.Fatalf("uninterrupted total %d, from-scratch mine %d", got, oracle)
	}

	// A log holding at least two records: feed until one does.
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ohmt")
	m, err := NewMiner(cfg(path, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterQuery(p); err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for i := 0; len(recs) < 2; i++ {
		run(m, feed[i:i+1])
		_, _, recs = streamFiles(t, path)
	}
	m.Close()
	epoch := m.Epoch()
	base, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}
	load := func(log []byte) (*Miner, error) {
		t.Helper()
		dst := filepath.Join(t.TempDir(), "s.ohmt")
		if err := os.WriteFile(dst, base, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst+".log", log, 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadFile(dst, Config{})
	}
	last := len(log) - durable.FrameOverhead - len(recs[len(recs)-1])
	for off := last; off < len(log); off++ {
		torn, err := load(log[:off])
		if err != nil {
			t.Fatalf("last record torn at %d: %v", off, err)
		}
		sameState(t, "torn", torn, epoch-1, want[epoch-1])
	}
	first := durable.LogHeaderLen
	for i := first + 4; i < first+durable.FrameOverhead+len(recs[0]); i++ {
		bad := bytes.Clone(log)
		bad[i] ^= 0x01
		if _, err := load(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d of the first record: %v", i, err)
		}
	}
}

// TestSnapshotFailureSurfaced: ENOSPC on an append is surfaced with the
// batch's result — applied in memory, not acknowledged durable — and the
// same-seq retry answers ErrStale only after rewriting the base, so the ack
// it gives holds across a reload; later batches append again.
func TestSnapshotFailureSurfaced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ohmt")
	nw := &faultinject.NoSpaceWriter{}
	m, err := NewMiner(Config{NumVertices: 6, Snapshot: &FileSink{Path: path, wrap: func(w io.Writer) io.Writer { nw.W = w; return nw }}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.RegisterQuery(pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyBatch(Batch{Seq: 1, Add: [][]uint32{{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	nw.Break()
	b2 := Batch{Seq: 2, Add: [][]uint32{{1, 2}, {2, 3}}}
	res, err := m.ApplyBatch(b2)
	if !errors.Is(err, faultinject.ErrNoSpace) || res == nil || res.Epoch != 2 {
		t.Fatalf("append on a full disk: res %+v, err %v; want the result with ErrNoSpace", res, err)
	}
	if m.Epoch() != 2 || m.LiveEdges() != 3 {
		t.Fatalf("state lost: epoch %d live %d", m.Epoch(), m.LiveEdges())
	}
	if _, base, recs := streamFiles(t, path); base.Epoch != 0 || len(recs) != 1 {
		t.Fatalf("before the retry: base epoch %d, %d records; want batch 1's record alone", base.Epoch, len(recs))
	}
	nw.Heal()
	if _, err := m.ApplyBatch(b2); !errors.Is(err, ErrStale) {
		t.Fatalf("same-seq retry: %v, want ErrStale", err)
	}
	if _, base, recs := streamFiles(t, path); base.Epoch != 2 || len(recs) != 0 {
		t.Fatalf("after the retry: base epoch %d, %d records", base.Epoch, len(recs))
	}
	loadEquivalent(t, m, path)
	if _, err := m.ApplyBatch(Batch{Seq: 3, Add: [][]uint32{{3, 4}}}); err != nil {
		t.Fatal(err)
	}
	if _, _, recs := streamFiles(t, path); len(recs) != 1 {
		t.Fatalf("batch after the heal: %d records, want 1", len(recs))
	}
	loadEquivalent(t, m, path)
	if nw.Dropped() != 1 {
		t.Fatalf("%d appends refused, want 1", nw.Dropped())
	}
}

// goldenFeed is internal/tools/goldengen's streamFeed: 40 hyperedges over 48
// vertices at epoch 1, then two per epoch, each batch retiring the first
// hyperedge the one before it added.
func goldenFeed() []Batch {
	rng := rand.New(rand.NewSource(40))
	feed := make([]Batch, 7)
	for i := range feed {
		feed[i].Seq = uint64(i + 1)
		for n := 0; n < 2 || (i == 0 && n < 40); n++ {
			v := uint32(rng.Intn(44))
			feed[i].Add = append(feed[i].Add, []uint32{v, v + 1 + uint32(rng.Intn(3))})
		}
		if i > 0 {
			feed[i].Retire = feed[i-1].Add[:1]
		}
	}
	return feed
}

// TestSnapshotLogGolden: testdata/parent_log.ohmt and parent_log.ohmt.log
// were written by internal/tools/goldengen (make golden TAG=log): the base
// at epoch 1 with both standing queries, the records of epochs 2–6 — epoch 6
// expires what epoch 1 added (window 5) — and the first half of epoch 7's.
// They load to epoch 6 of the same feed, and the loaded miner goes on in
// step with one that was never persisted.
func TestSnapshotLogGolden(t *testing.T) {
	path := filepath.Join("testdata", "parent_log.ohmt")
	if _, base, recs := streamFiles(t, path); base.Epoch != 1 || len(base.Queries) != 2 || len(recs) != 5 {
		t.Fatalf("golden files: base epoch %d with %d queries, %d intact records", base.Epoch, len(base.Queries), len(recs))
	}
	loaded, err := LoadFile(path, Config{})
	if err != nil {
		t.Fatalf("golden stream refused: %v", err)
	}
	feed := goldenFeed()
	control, err := NewMiner(Config{NumVertices: 48, Window: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range feed[:6] {
		if _, err := control.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			for _, lit := range [][][]uint32{{{0, 1}, {1, 2}}, {{0, 1, 2}, {2, 3}}} {
				if _, err := control.RegisterQuery(pattern.MustNew(lit, nil)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	minersEquivalent(t, control, loaded)
	r1, err := control.ApplyBatch(feed[6])
	if err != nil {
		t.Fatal(err)
	}
	r2, err := loaded.ApplyBatch(feed[6])
	if err != nil {
		t.Fatal(err)
	}
	if r1.Added != r2.Added || r1.Retired != r2.Retired || r1.Expired != r2.Expired || r1.Refreshed != r2.Refreshed {
		t.Fatalf("epoch 7 diverged: %+v vs %+v", r1, r2)
	}
	minersEquivalent(t, control, loaded)
}
