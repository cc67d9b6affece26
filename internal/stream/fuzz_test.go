package stream

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ohminer/internal/engine"
	"ohminer/internal/pattern"
)

// FuzzSnapshotDecode drives arbitrary bytes through the OHMT snapshot
// decoder: it must never panic, refuse torn and mutated inputs with an
// error, and any input it does accept must re-marshal, re-decode, and load
// cleanly — the decoder defines the format, so acceptance implies validity.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed with real snapshots so the fuzzer starts from the valid format.
	empty, err := NewMiner(Config{NumVertices: 4})
	if err != nil {
		f.Fatal(err)
	}
	b, err := empty.SnapshotState().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)

	m, err := NewMiner(Config{NumVertices: 10, Window: 3})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := m.RegisterQuery(pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)); err != nil {
		f.Fatal(err)
	}
	if _, err := m.ApplyBatch(Batch{Add: [][]uint32{{0, 1}, {1, 2}, {2, 3, 4}}}); err != nil {
		f.Fatal(err)
	}
	if _, err := m.ApplyBatch(Batch{Add: [][]uint32{{5, 6}}, Retire: [][]uint32{{0, 1}}}); err != nil {
		f.Fatal(err)
	}
	b, err = m.SnapshotState().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add(b[:len(b)/2]) // torn tail
	// A snapshot written by the first (reflection-based) OHMT encoder.
	golden, err := os.ReadFile(filepath.Join("testdata", "parent_pr13.ohmt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte{})
	f.Add([]byte("OHMT"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Unmarshal(data)
		if err != nil {
			return // rejection is always fine; panics are not
		}
		// Accepted input must be fully well-formed: semantic validation,
		// re-encoding, and a full miner load must all succeed.
		if err := s.Validate(); err != nil {
			t.Fatalf("decoded snapshot fails Validate: %v", err)
		}
		enc, err := s.Marshal()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		s2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if s2.Epoch != s.Epoch || len(s2.Edges) != len(s.Edges) || len(s2.Queries) != len(s.Queries) {
			t.Fatalf("re-decode drifted: %+v vs %+v", s2, s)
		}
		if _, err := loadSnapshot(s); err != nil {
			t.Fatalf("accepted snapshot fails to load: %v", err)
		}
	})
}

// FuzzStreamLogReplay drives arbitrary bytes through the stream log's
// replay: the parent_log golden is the base and the fuzzed bytes are its
// .log. LoadFile must never panic; it either refuses the log (ErrCorrupt, or
// the version error) or loads a miner whose state validates and round-trips
// through Marshal and Unmarshal byte for byte. A log it loads also opens
// with the sink, to the same miner, and takes one more batch; the files then
// reload to the miner that applied it.
func FuzzStreamLogReplay(f *testing.F) {
	log, err := os.ReadFile(filepath.Join("testdata", "parent_log.ohmt.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)/2]) // torn mid-record
	live := goldenBaseEdge(f)
	f.Add(logOf(recordBytes(2, nil, [][]uint32{live, live}, 1, 2)))         // edge retired twice
	f.Add(logOf(recordBytes(2, [][]uint32{{47, 0}, {3, 3, 9}}, nil, 1, 2))) // sets not strictly ascending

	f.Fuzz(func(t *testing.T, data []byte) {
		path := logWith(t, data)
		m, err := LoadFile(path, Config{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "version") {
				t.Fatalf("refused with neither ErrCorrupt nor the version error: %v", err)
			}
			return
		}
		s := m.SnapshotState()
		if err := s.Validate(); err != nil {
			t.Fatalf("replayed snapshot fails Validate: %v", err)
		}
		enc, _ := s.Marshal()
		s2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if enc2, _ := s2.Marshal(); !bytes.Equal(enc, enc2) {
			t.Fatal("Marshal → Unmarshal → Marshal changed the bytes")
		}

		w, err := LoadFile(path, Config{Snapshot: &FileSink{Path: path}})
		if err != nil {
			t.Fatalf("loads read-only, refused with the sink: %v", err)
		}
		defer w.Close()
		minersEquivalent(t, m, w)
		if _, err := w.ApplyBatch(Batch{Add: [][]uint32{{0, 47}}}); err != nil {
			t.Fatalf("batch after the load with the sink: %v", err)
		}
		r, err := LoadFile(path, Config{})
		if err != nil {
			t.Fatalf("reload after the batch: %v", err)
		}
		minersEquivalent(t, w, r)
	})
}

// fuzzDeltaPatterns are FuzzStreamDelta's standing queries: fully symmetric
// ones (one orbit), symmetric ones with several orbits, and patterns with
// few or no automorphisms.
var fuzzDeltaPatterns = []string{
	"0 1; 1 2",
	"0 1; 1 2; 2 0",
	"0 1; 0 2; 0 3",
	"0 1; 1 2; 2 3",
	"0 1; 1 2; 2 3; 3 0",
	"0 1 2; 2 3; 3 4",
	"0 1; 1 2 3; 3 4; 4 0",
	"0 1 2; 2 3; 3 4 5; 5 6",
}

// FuzzStreamDelta reads the fuzz bytes as a script: a pattern from
// fuzzDeltaPatterns, a window of 0–3 batches, whether compaction is forced,
// then up to 10 batches over 12 vertices, each an add, a retire, a re-add
// (retire and add of a live edge, plus an add of an edge seen before) or an
// empty batch that only moves the window. After every batch the query's
// streamed total must equal TotalCount, and each side of the delta must be
// its unique count times |Aut|.
func FuzzStreamDelta(f *testing.F) {
	// A 2-chain: add {5,6}; add both edges of one embedding; retire them.
	f.Add([]byte{0, 0, 0, 0, 5, 6, 4, 0, 0, 1, 0, 1, 2, 5, 1, 2})
	f.Add([]byte{0, 0, 0x0c, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 0, 2, 3, 0x0c, 4, 5, 6, 7, 8, 9, 3})
	f.Add([]byte{1, 2, 0x0c, 0, 1, 1, 2, 0, 2, 2, 0, 1, 4, 3, 3, 0x08, 5, 6, 2, 7, 5, 1, 1, 9, 3, 3})
	f.Add([]byte{4, 5, 0x0c, 0, 1, 1, 2, 2, 3, 3, 0, 0x06, 2, 4, 0x09, 0, 0x0e, 1, 3, 5, 6, 8, 1, 1, 2, 3})
	f.Add([]byte{6, 1, 0x0c, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 0x05, 1, 2, 0x02, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nv = 12
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		p, err := pattern.Parse(fuzzDeltaPatterns[next()%len(fuzzDeltaPatterns)])
		if err != nil {
			t.Fatal(err)
		}
		flags := next()
		m, err := NewMiner(Config{NumVertices: nv, Window: uint64(flags % 4), Engine: engine.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if flags&4 != 0 {
			forceCompaction(m)
		}
		aut := uint64(p.Automorphisms())
		var ever [][]uint32
		edge := func() []uint32 {
			e := make([]uint32, 2+next()%2)
			for i := range e {
				e[i] = uint32(next() % nv)
			}
			ever = append(ever, e)
			return e
		}
		pick := func(from [][]uint32) []uint32 { return from[next()%len(from)] }
		for b := 0; b < 10 && len(data) > 0; b++ {
			op := next()
			var batch Batch
			live := m.LiveEdgeSets()
			switch n := 1 + (op>>2)%4; op % 4 {
			case 0:
				for range n {
					batch.Add = append(batch.Add, edge())
				}
			case 1:
				for i := 0; i < n && len(live) > 0; i++ {
					batch.Retire = append(batch.Retire, pick(live))
				}
			case 2:
				if len(live) > 0 {
					e := pick(live)
					batch.Retire, batch.Add = [][]uint32{e}, [][]uint32{e}
				}
				if len(ever) > 0 {
					batch.Add = append(batch.Add, pick(ever))
				}
			}
			res, err := m.ApplyBatch(batch)
			if err != nil {
				t.Fatalf("batch %d %+v: %v", b, batch, err)
			}
			if b == 0 {
				if _, err := m.RegisterQuery(p); err != nil {
					t.Fatal(err)
				}
				continue
			}
			d := res.Deltas[0]
			want, err := m.TotalCount(p)
			if err != nil {
				t.Fatal(err)
			}
			if d.Total != want.Ordered {
				t.Fatalf("batch %d, %s: streamed total %d (+%d −%d), TotalCount %d", b, p, d.Total, d.Added, d.Retired, want.Ordered)
			}
			if d.Added != d.AddedUnique*aut || d.Retired != d.RetiredUnique*aut {
				t.Fatalf("batch %d, %s: +%d −%d is not a multiple of |Aut| = %d", b, p, d.Added, d.Retired, aut)
			}
		}
	})
}
