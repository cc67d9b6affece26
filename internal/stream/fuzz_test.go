package stream

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ohminer/internal/pattern"
)

// FuzzSnapshotDecode drives arbitrary bytes through the OHMT snapshot
// decoder: it must never panic, refuse torn and mutated inputs with an
// error, and any input it does accept must re-marshal, re-decode, and Load
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
		if _, err := Load(s, Config{}); err != nil {
			t.Fatalf("accepted snapshot fails Load: %v", err)
		}
	})
}

// FuzzStreamLogReplay drives arbitrary bytes through the stream log's
// replay: the parent_log golden is the base and the fuzzed bytes are its
// .log. ReadFile must never panic; it either refuses the log (ErrCorrupt, or
// the version error) or returns a snapshot that validates and round-trips
// through Marshal and Unmarshal byte for byte.
func FuzzStreamLogReplay(f *testing.F) {
	log, err := os.ReadFile(filepath.Join("testdata", "parent_log.ohmt.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)/2]) // torn mid-record

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadFile(logWith(t, data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "version") {
				t.Fatalf("refused with neither ErrCorrupt nor the version error: %v", err)
			}
			return
		}
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
	})
}
