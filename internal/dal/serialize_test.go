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

// fileTables decodes the tables Save writes for s.
func fileTables(t testing.TB, s *Store) *csr {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	c := &csr{}
	at := 64
	for i, tab := range []*[]uint32{&c.adjOff, &c.adj, &c.grpOff, &c.grpDeg, &c.grpOvl, &c.grpStart} {
		*tab = make([]uint32, binary.LittleEndian.Uint64(data[8*[]int{3, 4, 5, 6, 6, 7}[i]:]))
		for j := range *tab {
			(*tab)[j] = binary.LittleEndian.Uint32(data[at:])
			at += 4
		}
	}
	return c
}

// resealed encodes c, tables edited by the caller, as a version-3 file over
// h under a fresh, correct checksum: the file a buggy or hostile encoder
// would write.
func resealed(h *hypergraph.Hypergraph, c *csr) []byte {
	var out []byte
	for _, w := range []uint64{dalMagic, dalVersion, h.Fingerprint(), uint64(len(c.adjOff)), uint64(len(c.adj)),
		uint64(len(c.grpOff)), uint64(len(c.grpDeg)), uint64(len(c.grpStart))} {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	for _, tab := range c.tables() {
		for _, v := range tab {
			out = binary.LittleEndian.AppendUint32(out, v)
		}
	}
	return resealCRC(append(out, 0, 0, 0, 0))
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
	for name, corrupt := range map[string]func(s *csr){
		"group start moved to len(adj)": func(s *csr) { s.grpStart[0] = uint32(len(s.adj)) },
		"wrong group degree":            func(s *csr) { s.grpDeg[0] = 1 },
		"group start past the next":     func(s *csr) { s.grpStart[1] = s.grpStart[2] + 1 },
		"last group start outside":      func(s *csr) { s.grpStart[len(s.grpStart)-1] = uint32(len(s.adj)) },
		"group keys descending":         func(s *csr) { s.grpOvl[0], s.grpOvl[1] = 2, 1 },
		"ids descending in a group": func(s *csr) {
			e1 := s.adj[s.adjOff[1]:s.adjOff[2]] // A(e1) = [0 2], one group
			e1[0], e1[1] = e1[1], e1[0]
		},
		"self neighbor":            func(s *csr) { s.adj[0] = 0 },
		"neighbor out of range":    func(s *csr) { s.adj[0] = 99 },
		"overlap label off by one": func(s *csr) { s.grpOvl[0]++ },
		"overlap label zero":       func(s *csr) { s.grpOvl[len(s.grpOvl)-1] = 0 },
		"group offsets not closed": func(s *csr) { s.grpOff[len(s.grpOff)-1]-- },
		"empty segment with a group": func(s *csr) {
			s.adjOff[1] = 0 // e0 loses its segment, keeps its groups
		},
	} {
		c := fileTables(t, Build(h))
		if _, err := Load(bytes.NewReader(resealed(h, c)), h); err != nil {
			t.Fatalf("%s: pristine store refused: %v", name, err)
		}
		corrupt(c)
		got, err := Load(bytes.NewReader(resealed(h, c)), h)
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
