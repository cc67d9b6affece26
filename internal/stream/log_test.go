package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ohminer/internal/durable"
	"ohminer/internal/engine"
	"ohminer/internal/faultinject"
	"ohminer/internal/pattern"
)

// streamFiles reads the base and the intact log records a FileSink at path
// holds.
func streamFiles(t testing.TB, path string) ([]byte, *Snapshot, [][]byte) {
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

// TestSnapshotCadence: the base-rewrite rule. The base is written when
// NewMiner creates the stream and on every registration; a batch appends
// exactly one record and leaves the base alone, unless the log has outgrown
// the base, when the base is rewritten at the batch's epoch and the log
// emptied; the log never stays larger than the base. Whatever the split, the
// files reload to the miner. A reload with the sink writes nothing: the base
// keeps its file and bytes, the log its records, and the next batch appends
// one record after them.
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

	// The restart: the live miner lets go of its files and a reload with the
	// sink takes them over.
	m.Close()
	before, _, recsBefore := streamFiles(t, path)
	fiBefore, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path, Config{Snapshot: &FileSink{Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	sameFiles(t, path, fiBefore, before, recsBefore)
	minersEquivalent(t, m, loaded)
	if _, err := loaded.ApplyBatch(Batch{Seq: 41, Add: randRaw(rng, 14, 3)}); err != nil {
		t.Fatal(err)
	}
	after, _, recs := streamFiles(t, path)
	if !bytes.Equal(before, after) || len(recs) != len(recsBefore)+1 || !slices.EqualFunc(recs[:len(recsBefore)], recsBefore, bytes.Equal) {
		t.Fatalf("the batch after the reload: base changed %v, records %d → %d", !bytes.Equal(before, after), len(recsBefore), len(recs))
	}
	loadEquivalent(t, loaded, path)
}

// sameFiles checks that the stream at path is still the base file fi with
// the bytes base and the log records recs: nothing renamed, rewritten or
// truncated.
func sameFiles(t *testing.T, path string, fi os.FileInfo, base []byte, recs [][]byte) {
	t.Helper()
	fiNow, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	b, _, recsNow := streamFiles(t, path)
	if !os.SameFile(fi, fiNow) || !bytes.Equal(b, base) || !slices.EqualFunc(recsNow, recs, bytes.Equal) {
		t.Fatalf("the files changed: same base file %v, same base bytes %v, records %d → %d", os.SameFile(fi, fiNow), bytes.Equal(b, base), len(recs), len(recsNow))
	}
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

// runFeed applies feed to m; a batch it applied before answers ErrStale.
func runFeed(t *testing.T, m *Miner, feed []Batch) {
	t.Helper()
	for _, b := range feed {
		if _, err := m.ApplyBatch(b); err != nil && !errors.Is(err, ErrStale) {
			t.Fatalf("batch %d: %v", b.Seq, err)
		}
	}
}

// chaosControl runs feed on a miner with no sink and the standing query p,
// windowed as the chaos tests' persisting miners are, and returns it with
// its state at every epoch from 0.
func chaosControl(t *testing.T, nv int, p *pattern.Pattern, feed []Batch) (*Miner, []chaosState) {
	t.Helper()
	control, err := NewMiner(Config{NumVertices: nv, Window: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := control.RegisterQuery(p); err != nil {
		t.Fatal(err)
	}
	want := []chaosState{stateOf(control)}
	for _, b := range feed {
		runFeed(t, control, []Batch{b})
		want = append(want, stateOf(control))
	}
	return control, want
}

// TestChaosStreamCrashResume is the stream log's fault table, on the
// io.Writer seam of its appends:
//
//   - kill: the process dies right after the k-th append, for every k of a
//     20-batch windowed feed; the files reload to epoch k, and replaying the
//     whole feed (ErrStale for what was applied) ends at the uninterrupted
//     totals, which equal a from-scratch mine;
//   - torn: the last record cut at every byte offset (a crash mid-append,
//     before the batch was acknowledged) loads the previous epoch, read-only
//     and with the sink; resumed with the sink, the feed appends after the
//     intact records and reaches the uninterrupted totals, and so does a
//     reload of the files it leaves;
//   - flip: a flipped byte in a complete record is ErrCorrupt.
func TestChaosStreamCrashResume(t *testing.T) {
	const nv, nBatches = 12, 20
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)
	feed := chaosFeed(nv, nBatches, 99)
	cfg := func(path string, wrap func(io.Writer) io.Writer) Config {
		return Config{NumVertices: nv, Window: 6, Snapshot: &FileSink{Path: path, wrap: wrap}}
	}
	control, want := chaosControl(t, nv, p, feed)

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
		runFeed(t, resumed, feed)
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
		runFeed(t, m, feed[i:i+1])
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
	files := func(log []byte) string {
		t.Helper()
		dst := filepath.Join(t.TempDir(), "s.ohmt")
		if err := os.WriteFile(dst, base, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst+".log", log, 0o644); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	last := len(log) - durable.FrameOverhead - len(recs[len(recs)-1])
	for off := last; off < len(log); off++ {
		dst := files(log[:off])
		torn, err := LoadFile(dst, Config{})
		if err != nil {
			t.Fatalf("last record torn at %d: %v", off, err)
		}
		sameState(t, "torn", torn, epoch-1, want[epoch-1])
		// With the sink the torn tail is cut off and the feed appends after
		// the intact records.
		resumed, err := LoadFile(dst, cfg(dst, nil))
		if err != nil {
			t.Fatalf("last record torn at %d, resumed with the sink: %v", off, err)
		}
		sameState(t, "torn, resumed", resumed, epoch-1, want[epoch-1])
		runFeed(t, resumed, feed)
		sameState(t, "torn, replayed", resumed, nBatches, want[nBatches])
		resumed.Close()
		reloaded, err := LoadFile(dst, Config{})
		if err != nil {
			t.Fatalf("last record torn at %d, reloaded after the feed: %v", off, err)
		}
		sameState(t, "torn, reloaded", reloaded, nBatches, want[nBatches])
	}
	first := durable.LogHeaderLen
	for i := first + 4; i < first+durable.FrameOverhead+len(recs[0]); i++ {
		bad := bytes.Clone(log)
		bad[i] ^= 0x01
		if _, err := LoadFile(files(bad), Config{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d of the first record: %v", i, err)
		}
	}
}

// TestChaosStreamRestartAppends: a restart with the sink reopens the log
// and appends to it. Two restarts with no batch between them each leave the
// base's file and bytes and the log's records as they were; the feed goes on
// from the second until the process dies in the middle of an append, and a
// reload is at the last acknowledged epoch; a restart with the sink that
// replays the whole feed (ErrStale for what was applied) ends at the
// uninterrupted totals, which equal a from-scratch mine.
func TestChaosStreamRestartAppends(t *testing.T) {
	const nv, nBatches = 12, 20
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)
	feed := chaosFeed(nv, nBatches, 41)
	path := filepath.Join(t.TempDir(), "s.ohmt")
	cfg := func(wrap func(io.Writer) io.Writer) Config {
		return Config{NumVertices: nv, Window: 6, Snapshot: &FileSink{Path: path, wrap: wrap}}
	}
	control, want := chaosControl(t, nv, p, feed)

	m, err := NewMiner(cfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterQuery(p); err != nil {
		t.Fatal(err)
	}
	next := 0
	for recs := [][]byte(nil); len(recs) < 2; next++ {
		runFeed(t, m, feed[next:next+1])
		_, _, recs = streamFiles(t, path)
	}
	m.Close()

	for i := 1; i <= 2; i++ {
		base, _, recs := streamFiles(t, path)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := LoadFile(path, cfg(nil))
		if err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
		sameState(t, fmt.Sprintf("restart %d", i), r, uint64(next), want[next])
		sameFiles(t, path, fi, base, recs)
		r.Close()
	}

	start, acked := uint64(next), uint64(next)
	r, err := LoadFile(path, cfg(func(w io.Writer) io.Writer { return &faultinject.CrashWriter{W: w, After: 4} }))
	if err != nil {
		t.Fatal(err)
	}
	for ; ; next++ {
		res, err := r.ApplyBatch(feed[next])
		if errors.Is(err, faultinject.ErrKilled) {
			break
		}
		if err != nil {
			t.Fatalf("batch %d: %v", feed[next].Seq, err)
		}
		acked = res.Epoch
	}
	r.Close() // the SIGKILL: the append in flight never landed
	if acked != uint64(next) || acked != start+4 {
		t.Fatalf("restarted at epoch %d, acknowledged up to epoch %d, died in batch %d; want 4 appends acknowledged", start, acked, next+1)
	}
	crashed, err := LoadFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, "after the crash", crashed, acked, want[acked])

	resumed, err := LoadFile(path, cfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	runFeed(t, resumed, feed)
	sameState(t, "replayed", resumed, nBatches, want[nBatches])
	loadEquivalent(t, resumed, path)
	if got, oracle := resumed.Queries()[0].Total, oracle(t, nv, control.LiveEdgeSets(), p, engine.Options{}); got != oracle {
		t.Fatalf("resumed total %d, from-scratch mine %d", got, oracle)
	}
}

// TestSnapshotRebaseRenameFails: a base rewrite whose rename fails (the
// base's name is taken by a non-empty directory) fails the registration that
// needed it and leaves the miner dirty; once the name is free again, the
// next batch rewrites the base and is acknowledged, and the files reload to
// the miner.
func TestSnapshotRebaseRenameFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ohmt")
	m := buildStream(t, Config{Window: 4, Snapshot: &FileSink{Path: path}}, 1, 9)
	defer m.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "keep"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterQuery(pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil)); err == nil {
		t.Fatal("registration acknowledged with the base's rename failing")
	}
	if !m.dirty {
		t.Fatal("the failed rewrite left the miner clean")
	}
	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	if _, err := m.ApplyBatch(Batch{Seq: 2, Add: randRaw(rng, 14, 3)}); err != nil {
		t.Fatalf("the batch after the heal: %v", err)
	}
	if _, base, recs := streamFiles(t, path); m.dirty || base.Epoch != 2 || len(base.Queries) != 3 || len(recs) != 0 {
		t.Fatalf("after the heal: dirty %v, base epoch %d with %d queries, %d records", m.dirty, base.Epoch, len(base.Queries), len(recs))
	}
	loadEquivalent(t, m, path)
}

// TestLoadFileRefusesOtherSink: LoadFile with a sink that names files other
// than the ones it loads is refused, and neither stream's directory changes.
// A sink naming the same files by another spelling is accepted.
func TestLoadFileRefusesOtherSink(t *testing.T) {
	dir, other := t.TempDir(), t.TempDir()
	path := filepath.Join(dir, "s.ohmt")
	m := buildStream(t, Config{Snapshot: &FileSink{Path: path}}, 4, 2)
	m.Close()
	if err := os.WriteFile(filepath.Join(other, "t.ohmt"), []byte("other"), 0o644); err != nil {
		t.Fatal(err)
	}
	listing := func() map[string]string {
		files := map[string]string{}
		for _, d := range []string{dir, other} {
			ents, err := os.ReadDir(d)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				b, err := os.ReadFile(filepath.Join(d, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				files[filepath.Join(d, e.Name())] = string(b)
			}
		}
		return files
	}
	before := listing()
	for _, sink := range []string{filepath.Join(other, "t.ohmt"), filepath.Join(other, "s.ohmt"), filepath.Join(dir, "t.ohmt")} {
		if loaded, err := LoadFile(path, Config{Snapshot: &FileSink{Path: sink}}); err == nil {
			loaded.Close()
			t.Fatalf("sink %s accepted for the stream at %s", sink, path)
		}
		if after := listing(); !maps.Equal(before, after) {
			t.Fatalf("sink %s: the files changed from %v to %v", sink, before, after)
		}
	}
	loaded, err := LoadFile(path, Config{Snapshot: &FileSink{Path: filepath.Join(dir, ".", "..", filepath.Base(dir), "s.ohmt")}})
	if err != nil {
		t.Fatalf("the same files spelled another way: %v", err)
	}
	defer loaded.Close()
	minersEquivalent(t, m, loaded)
}

// TestSnapshotFailureSurfaced: a batch whose log append fails (a full disk)
// or whose fsync fails is applied in memory but not acknowledged durable:
// the error is surfaced with the batch's result, and the same-seq retry
// answers ErrStale only after rewriting the base, so the ack it gives holds
// across a reload, at totals equal to a from-scratch mine; later batches
// append again. Every acknowledged append costs the log one fsync.
func TestSnapshotFailureSurfaced(t *testing.T) {
	type fault interface {
		io.Writer
		Break()
		Heal()
	}
	rows := []struct {
		name  string
		fault func(io.Writer) fault
		err   error
		recs  int // log records before the retry: the failed batch's, too, if its write landed
	}{
		{"full disk", func(w io.Writer) fault { return &faultinject.NoSpaceWriter{W: w} }, faultinject.ErrNoSpace, 1},
		{"failed fsync", func(w io.Writer) fault { return &faultinject.SyncWriter{W: w} }, faultinject.ErrIO, 2},
	}
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.ohmt")
			var f fault
			m, err := NewMiner(Config{NumVertices: 6, Snapshot: &FileSink{Path: path, wrap: func(w io.Writer) io.Writer { f = r.fault(w); return f }}})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if _, err := m.RegisterQuery(p); err != nil {
				t.Fatal(err)
			}
			if _, err := m.ApplyBatch(Batch{Seq: 1, Add: [][]uint32{{0, 1}}}); err != nil {
				t.Fatal(err)
			}
			f.Break()
			b2 := Batch{Seq: 2, Add: [][]uint32{{1, 2}, {2, 3}}}
			res, err := m.ApplyBatch(b2)
			if !errors.Is(err, r.err) || res == nil || res.Epoch != 2 {
				t.Fatalf("res %+v, err %v; want the result with %v", res, err, r.err)
			}
			if m.Epoch() != 2 || m.LiveEdges() != 3 {
				t.Fatalf("state lost: epoch %d live %d", m.Epoch(), m.LiveEdges())
			}
			if _, base, recs := streamFiles(t, path); base.Epoch != 0 || len(recs) != r.recs {
				t.Fatalf("before the retry: base epoch %d, %d records; want epoch 0, %d", base.Epoch, len(recs), r.recs)
			}
			f.Heal()
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
			if got, want := m.Queries()[0].Total, oracle(t, 6, m.LiveEdgeSets(), p, engine.Options{}); got != want {
				t.Fatalf("total %d, from-scratch mine %d", got, want)
			}
			switch f := f.(type) {
			case *faultinject.NoSpaceWriter:
				if f.Dropped() != 1 {
					t.Fatalf("%d appends refused, want 1", f.Dropped())
				}
			case *faultinject.SyncWriter:
				if f.Syncs() != 3 {
					t.Fatalf("%d fsyncs of the log for batches 1 and 3 and the failed 2, want 3", f.Syncs())
				}
			}
		})
	}
}

// logWith writes the parent_log golden base to a temporary stream path with
// log as its .log and returns the path.
func logWith(t *testing.T, log []byte) string {
	t.Helper()
	base, err := os.ReadFile(filepath.Join("testdata", "parent_log.ohmt"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.ohmt")
	if err := os.WriteFile(path, base, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".log", log, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// recordBytes encodes one log record with zero counters for the queries
// qids, as Miner.logRecord lays a record out.
func recordBytes(epoch uint64, adds, retires [][]uint32, qids ...uint64) []byte {
	le := binary.LittleEndian
	b := le.AppendUint64(nil, epoch)
	for _, sets := range [2][][]uint32{adds, retires} {
		b = le.AppendUint32(b, uint32(len(sets)))
		for _, e := range sets {
			b = appendVerts(b, e)
		}
	}
	b = le.AppendUint32(b, uint32(len(qids)))
	for _, id := range qids {
		b = append(le.AppendUint64(b, id), make([]byte, 3*8)...)
	}
	return b
}

// logOf frames records into the bytes of a stream log file.
func logOf(recs ...[]byte) []byte {
	b := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, logFormat.Magic), logFormat.Version)
	for _, r := range recs {
		b = durable.AppendFrame(b, r)
	}
	return b
}

// goldenBaseEdge is a live hyperedge of the parent_log golden base.
func goldenBaseEdge(tb testing.TB) []uint32 {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "parent_log.ohmt"))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := Unmarshal(b)
	if err != nil {
		tb.Fatal(err)
	}
	return s.Edges[0].Verts
}

// TestReplayRefusesInconsistentRecords: a log record whose frame and
// checksum are intact but whose content cannot follow the base is
// ErrCorrupt. Each row is one record after the parent_log golden base
// (epoch 1, window 5, 48 vertices, queries 1 and 2); the first row is
// well-formed, so the refusals come from the checks they name.
func TestReplayRefusesInconsistentRecords(t *testing.T) {
	fresh := []uint32{0, 47} // no golden hyperedge spans 47 vertices
	live := goldenBaseEdge(t)
	rows := []struct {
		name string
		rec  []byte
		ok   bool
	}{
		{"well-formed", recordBytes(2, [][]uint32{fresh}, nil, 1, 2), true},
		{"epoch gap", recordBytes(3, [][]uint32{fresh}, nil, 1, 2), false},
		{"retire of a non-live edge", recordBytes(2, nil, [][]uint32{fresh}, 1, 2), false},
		{"edge added twice", recordBytes(2, [][]uint32{fresh, fresh}, nil, 1, 2), false},
		{"edge retired twice", recordBytes(2, nil, [][]uint32{live, live}, 1, 2), false},
		{"vertex set not strictly ascending", recordBytes(2, [][]uint32{{47, 0}}, nil, 1, 2), false},
		{"vertex set with a repeated vertex", recordBytes(2, [][]uint32{{3, 3, 9}}, nil, 1, 2), false},
		{"vertex outside the universe", recordBytes(2, [][]uint32{{0, 48}}, nil, 1, 2), false},
		{"wrong query count", recordBytes(2, nil, nil, 1), false},
		{"unknown query", recordBytes(2, nil, nil, 1, 9), false},
		{"query named twice", recordBytes(2, nil, nil, 1, 1), false},
	}
	for _, r := range rows {
		m, err := LoadFile(logWith(t, logOf(r.rec)), Config{})
		switch {
		case r.ok && (err != nil || m.Epoch() != 2):
			t.Errorf("%s: refused (%v)", r.name, err)
		case !r.ok && !errors.Is(err, ErrCorrupt):
			t.Errorf("%s: %v, want ErrCorrupt", r.name, err)
		}
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

// windowQueries are the stream_window benchmark's standing queries: the
// 2-chain, the triangle and the 3-star over pair hyperedges.
func windowQueries(tb testing.TB) []*pattern.Pattern {
	tb.Helper()
	var pats []*pattern.Pattern
	for _, lit := range []string{"0 1; 1 2", "0 1; 1 2; 2 0", "0 1; 0 2; 0 3"} {
		p, err := pattern.Parse(lit)
		if err != nil {
			tb.Fatal(err)
		}
		pats = append(pats, p)
	}
	return pats
}

// TestReloadFollowsLiveMiner: on the stream_window feed with its three
// standing queries, the files reload at every epoch whose log holds 12
// records, resurrections and window expiry among them, to a miner with no
// latest batch that goes on in step with the live one: over the next 5
// batches both report the same added, retired, expired and refreshed counts,
// the same deltas and the same TotalCounts.
func TestReloadFollowsLiveMiner(t *testing.T) {
	const window, batches, follow = 20, 60, 5
	path := filepath.Join(t.TempDir(), "s.ohmt")
	live, err := NewMiner(Config{NumVertices: 1800, Window: window, Engine: engine.Options{Workers: 1}, Snapshot: &FileSink{Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	pats := windowQueries(t)
	type follower struct {
		m    *Miner
		from uint64
	}
	var followers []follower
	seen := map[string]bool{}
	var resurrected, expired []int // per epoch, from 1
	reloads := 0
	for i, b := range windowFeed(7, 1800, window, batches) {
		res, err := live.ApplyBatch(b)
		if err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
		for _, f := range followers {
			if res.Epoch > f.from+follow {
				continue
			}
			got, err := f.m.ApplyBatch(b)
			if err != nil {
				t.Fatalf("reloaded at %d, batch %d: %v", f.from, res.Epoch, err)
			}
			if got.Added != res.Added || got.Retired != res.Retired || got.Expired != res.Expired || got.Refreshed != res.Refreshed {
				t.Fatalf("reloaded at %d, batch %d: %+v, live %+v", f.from, res.Epoch, got, res)
			}
			for j, d := range got.Deltas {
				d.ElapsedMS, res.Deltas[j].ElapsedMS = 0, 0
				if d != res.Deltas[j] {
					t.Fatalf("reloaded at %d, batch %d: delta %+v, live %+v", f.from, res.Epoch, d, res.Deltas[j])
				}
			}
			for _, p := range pats {
				a, err := live.TotalCount(p)
				if err != nil {
					t.Fatal(err)
				}
				if c, err := f.m.TotalCount(p); err != nil || c.Ordered != a.Ordered {
					t.Fatalf("reloaded at %d, batch %d, %s: TotalCount %d (%v), live %d", f.from, res.Epoch, p, c.Ordered, err, a.Ordered)
				}
			}
		}
		if i == 0 {
			for _, p := range pats {
				if _, err := live.RegisterQuery(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		r := 0
		for _, e := range b.Add {
			if k := edgeKey(e); seen[k] {
				r++
			} else {
				seen[k] = true
			}
		}
		resurrected, expired = append(resurrected, r), append(expired, res.Expired)
		_, _, recs := streamFiles(t, path)
		if len(recs) != 12 {
			continue
		}
		r, x := 0, 0
		for e := len(expired) - len(recs); e < len(expired); e++ {
			r, x = r+resurrected[e], x+expired[e]
		}
		if r == 0 || x == 0 {
			t.Fatalf("epoch %d: the log's 12 records hold %d resurrections and %d expired edges", res.Epoch, r, x)
		}
		m, err := LoadFile(path, Config{Engine: engine.Options{Workers: 1}})
		if err != nil {
			t.Fatalf("reload at epoch %d: %v", res.Epoch, err)
		}
		minersEquivalent(t, live, m)
		if _, err := m.LatestDelta(pats[0]); err == nil {
			t.Fatalf("reload at epoch %d: LatestDelta answers for a batch applied before the load", res.Epoch)
		}
		followers = append(followers, follower{m, res.Epoch})
		reloads++
	}
	t.Logf("%d reloads", reloads)
	if reloads < 2 {
		t.Fatalf("%d reloads over %d batches, want at least 2", reloads, window+batches)
	}
}

// TestReloadKeepsRetiredEdges: a load lays the base's and the log's edges
// out once, so the edges the log's records retired stay in the store, masked,
// as in a live miner. On the stream_window feed, reloaded once the log holds
// 8 records past a full window, the loaded miner has retired edges, its
// TotalCounts are the live miner's before and after every later batch, and
// each later batch reports Compacted exactly when shouldCompact said so
// before it; at least one does.
func TestReloadKeepsRetiredEdges(t *testing.T) {
	const window, batches = 20, 50
	path := filepath.Join(t.TempDir(), "s.ohmt")
	live, err := NewMiner(Config{NumVertices: 1800, Window: window, Engine: engine.Options{Workers: 1}, Snapshot: &FileSink{Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	pats := windowQueries(t)
	sameTotals := func(m *Miner, epoch uint64) {
		t.Helper()
		for _, p := range pats {
			a, err := live.TotalCount(p)
			if err != nil {
				t.Fatal(err)
			}
			if c, err := m.TotalCount(p); err != nil || c.Ordered != a.Ordered {
				t.Fatalf("epoch %d, %s: TotalCount %d (%v), live %d", epoch, p, c.Ordered, err, a.Ordered)
			}
		}
	}
	var loaded *Miner
	compactions := 0
	for i, b := range windowFeed(7, 1800, window, batches) {
		if loaded != nil {
			want := loaded.shouldCompact()
			got, err := loaded.ApplyBatch(b)
			if err != nil {
				t.Fatalf("loaded, batch %d: %v", i+1, err)
			}
			if got.Compacted != want {
				t.Fatalf("loaded, batch %d: Compacted %v, shouldCompact said %v", i+1, got.Compacted, want)
			}
			if want {
				compactions++
			}
		}
		res, err := live.ApplyBatch(b)
		if err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
		if i == 0 {
			for _, p := range pats {
				if _, err := live.RegisterQuery(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		if loaded != nil {
			sameTotals(loaded, res.Epoch)
			continue
		}
		if _, _, recs := streamFiles(t, path); i < window || len(recs) < 8 {
			continue
		}
		if loaded, err = LoadFile(path, Config{Engine: engine.Options{Workers: 1}}); err != nil {
			t.Fatalf("reload at epoch %d: %v", res.Epoch, err)
		}
		if loaded.RetiredEdges() == 0 {
			t.Fatalf("reload at epoch %d: no retired edges, the load compacted", res.Epoch)
		}
		sameTotals(loaded, res.Epoch)
	}
	if loaded == nil || compactions == 0 {
		t.Fatalf("reloaded %v, %d compactions after the reload, want a reload and at least one", loaded != nil, compactions)
	}
}

// BenchmarkLoadFile times LoadFile on the files the stream_window feed leaves
// behind, with its three standing queries, at 2 400, 9 600 and 38 400 live
// hyperedges (window 40, 160 and 640 over 1 800, 7 200 and 28 800
// vertices), fed on until the log holds window/2 records past a full window.
// It reports the log's records and the live edges.
func BenchmarkLoadFile(b *testing.B) {
	dir := b.TempDir()
	for _, scale := range []int{1, 4, 16} {
		window, nv := 40*scale, 1800*scale
		var path string
		var records, liveEdges int
		b.Run(fmt.Sprintf("live=%d", 60*window), func(b *testing.B) {
			if path == "" {
				path = filepath.Join(dir, fmt.Sprintf("s%d.ohmt", scale))
				m, err := NewMiner(Config{NumVertices: nv, Window: uint64(window), Engine: engine.Options{Workers: 1}, Snapshot: &FileSink{Path: path}})
				if err != nil {
					b.Fatal(err)
				}
				for i, batch := range windowFeed(1, nv, window, 4*window) {
					if _, err := m.ApplyBatch(batch); err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						for _, p := range windowQueries(b) {
							if _, err := m.RegisterQuery(p); err != nil {
								b.Fatal(err)
							}
						}
					}
					if i >= window {
						if _, _, recs := streamFiles(b, path); len(recs) >= window/2 {
							records = len(recs)
							break
						}
					}
				}
				liveEdges = m.LiveEdges()
				m.Close()
			}
			b.ResetTimer()
			for range b.N {
				if _, err := LoadFile(path, Config{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(records), "records")
			b.ReportMetric(float64(liveEdges), "live")
		})
	}
}
