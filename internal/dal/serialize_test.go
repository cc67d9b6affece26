package dal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ohminer/internal/durable"
	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
)

// goldenHypergraph is the hypergraph internal/tools/goldengen builds the
// parent_*.ohmd stores on.
func goldenHypergraph() *hypergraph.Hypergraph {
	return gen.MustGenerate(gen.Config{Name: "golden", NumVertices: 60, NumEdges: 140,
		Communities: 3, MemberOverlap: 1.5, EdgeSizeMin: 2, EdgeSizeMax: 9, EdgeSizeMean: 5, Seed: 21})
}

// TestParentStoreLoads: testdata/parent_pr17.ohmd was written by the encoder
// of the commit before the group table was keyed on (degree, overlap) — OHMD
// version 2, degree-only groups (`make golden REV=b1fae69 TAG=pr17`). It
// must load, regrouped, to exactly what Build gives, and stay refused where a
// version-3 file is: against another hypergraph, truncated, or bit-flipped.
func TestParentStoreLoads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent_pr17.ohmd"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint64(data[8:]); v != dalVersionDeg {
		t.Fatalf("golden file is version %d, want the parent's %d", v, dalVersionDeg)
	}
	h := goldenHypergraph()
	loaded, err := Load(bytes.NewReader(data), h)
	if err != nil {
		t.Fatal(err)
	}
	storesEqual(t, Build(h), loaded)

	var resaved bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint64(resaved.Bytes()[8:]); v != dalVersion {
		t.Fatalf("re-saved as version %d, want %d", v, dalVersion)
	}

	other := gen.MustGenerate(gen.Config{Name: "a", NumVertices: 60, NumEdges: 140,
		Communities: 3, EdgeSizeMin: 2, EdgeSizeMax: 9, EdgeSizeMean: 5, Seed: 22})
	if _, err := Load(bytes.NewReader(data), other); err == nil {
		t.Error("version-2 store loaded against a different hypergraph")
	}
	if _, err := Load(bytes.NewReader(data[:len(data)-9]), h); err == nil {
		t.Error("truncated version-2 store accepted")
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)/2] ^= 0x10
	if _, err := Load(bytes.NewReader(flipped), h); err == nil {
		t.Error("bit-flipped version-2 store accepted (its payload is not kept, its checksum still counts)")
	}
}

// resealed serializes s as it stands — tables edited by the caller — under a
// fresh, correct checksum: the file a buggy or hostile encoder would write.
func resealed(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsInconsistentTables: a correctly checksummed file whose
// tables contradict each other or the hypergraph is refused with
// ErrInconsistent. The first two cases are the parent's bugs: a group start
// moved to len(adj) made Load panic in groupSlice ("slice bounds out of range
// [14:1]"), and a wrong group degree was accepted and mis-indexed every later
// query.
func TestLoadRejectsInconsistentTables(t *testing.T) {
	h := hypergraph.MustBuild(8, [][]uint32{
		{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {4, 5}, {5, 6, 7}, {0, 7},
	}, nil)
	for name, corrupt := range map[string]func(s *Store){
		"group start moved to len(adj)": func(s *Store) { s.grpStart[0] = uint32(len(s.adj)) },
		"wrong group degree":            func(s *Store) { s.grpDeg[0] = 1 },
		"group start past the next":     func(s *Store) { s.grpStart[1] = s.grpStart[2] + 1 },
		"last group start outside":      func(s *Store) { s.grpStart[len(s.grpStart)-1] = uint32(len(s.adj)) },
		"group keys descending":         func(s *Store) { s.grpOvl[0], s.grpOvl[1] = 2, 1 },
		"ids descending in a group": func(s *Store) {
			e1 := s.adj[s.adjOff[1]:s.adjOff[2]] // A(e1) = [0 2], one group
			e1[0], e1[1] = e1[1], e1[0]
		},
		"self neighbor":            func(s *Store) { s.adj[0] = 0 },
		"neighbor out of range":    func(s *Store) { s.adj[0] = 99 },
		"overlap label off by one": func(s *Store) { s.grpOvl[0]++ },
		"overlap label zero":       func(s *Store) { s.grpOvl[len(s.grpOvl)-1] = 0 },
		"group offsets not closed": func(s *Store) { s.grpOff[len(s.grpOff)-1]-- },
		"empty segment with a group": func(s *Store) {
			s.adjOff[1] = 0 // e0 loses its segment, keeps its groups
		},
	} {
		s := Build(h)
		if _, err := Load(bytes.NewReader(resealed(t, s)), h); err != nil {
			t.Fatalf("%s: pristine store refused: %v", name, err)
		}
		corrupt(s)
		got, err := Load(bytes.NewReader(resealed(t, s)), h)
		if !errors.Is(err, ErrInconsistent) {
			t.Errorf("%s: Load returned (%v, %v), want ErrInconsistent", name, got != nil, err)
		}
	}
}

// resealCRC recomputes the trailer of a mutated store file.
func resealCRC(data []byte) []byte {
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[len(out)-4:], durable.Checksum(out[:len(out)-4]))
	return out
}

func TestSaveLoadRoundtrip(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 300, NumEdges: 700,
		Communities: 15, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 9, EdgeSizeMean: 5, Seed: 13})
	orig := Build(h)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), h)
	if err != nil {
		t.Fatal(err)
	}
	storesEqual(t, orig, loaded)
}

func TestLoadRejectsWrongHypergraph(t *testing.T) {
	h1 := gen.MustGenerate(gen.Config{Name: "a", NumVertices: 100, NumEdges: 200,
		Communities: 5, EdgeSizeMin: 2, EdgeSizeMax: 5, EdgeSizeMean: 3, Seed: 1})
	h2 := gen.MustGenerate(gen.Config{Name: "b", NumVertices: 100, NumEdges: 200,
		Communities: 5, EdgeSizeMin: 2, EdgeSizeMax: 5, EdgeSizeMean: 3, Seed: 2})
	var buf bytes.Buffer
	if err := Build(h1).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), h2); err == nil {
		t.Fatal("store loaded against a different hypergraph")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "a", NumVertices: 80, NumEdges: 150,
		Communities: 5, EdgeSizeMin: 2, EdgeSizeMax: 5, EdgeSizeMean: 3, Seed: 3})
	var buf bytes.Buffer
	if err := Build(h).Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Truncated file.
	if _, err := Load(bytes.NewReader(data[:len(data)/2]), h); err == nil {
		t.Error("truncated store accepted")
	}
	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := Load(bytes.NewReader(bad), h); err == nil {
		t.Error("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte(nil), data...)
	bad[8] = 99
	if _, err := Load(bytes.NewReader(bad), h); err == nil {
		t.Error("bad version accepted")
	}
	// Flipped payload byte: either the fingerprint check (header) or the
	// structural validation must catch gross corruption of offsets.
	bad = append([]byte(nil), data...)
	bad[8*8+3] ^= 0x80 // inside adjOff[0]
	if _, err := Load(bytes.NewReader(bad), h); err == nil {
		t.Error("corrupt offsets accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "a", NumVertices: 60, NumEdges: 100,
		Communities: 4, EdgeSizeMin: 2, EdgeSizeMax: 5, EdgeSizeMean: 3, Seed: 4})
	s := Build(h)
	path := t.TempDir() + "/store.dal"
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNeighbors(0) != s.NumNeighbors(0) {
		t.Fatal("loaded store differs")
	}
	if _, err := LoadFile(path+"x", h); err == nil {
		t.Fatal("missing file accepted")
	}
}
