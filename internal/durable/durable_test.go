package durable_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ohminer/internal/checkpoint"
	"ohminer/internal/durable"
	"ohminer/internal/stream"
)

func ckptSample() *checkpoint.Snapshot {
	return &checkpoint.Snapshot{
		Seq: 3, PlanFP: 0xdeadbeefcafe, GraphFP: 0x1234567890ab, Ordered: 424242,
		Stats: []uint64{1, 2, 3, 4, 5},
		Frontier: []checkpoint.Task{
			{Depth: 0, Cands: []uint32{7, 8, 9}},
			{Depth: 2, Prefix: []uint32{10, 11}, Cands: []uint32{100}},
		},
	}
}

func streamSample() *stream.Snapshot {
	return &stream.Snapshot{
		NumVertices: 6, Epoch: 2, NextQID: 2,
		Edges: []stream.SnapshotEdge{
			{Verts: []uint32{0, 1}, AddEpoch: 1},
			{Verts: []uint32{1, 2}, AddEpoch: 2},
		},
		Queries: []stream.SnapshotQuery{
			{ID: 1, BaseEpoch: 1, Base: 2, CumAdded: 2, CumRetired: 1, Pattern: "0 1;1 2"},
		},
	}
}

// onlyEntry fails unless dir holds exactly the named entry: no temp file
// survived.
func onlyEntry(t *testing.T, dir, name string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != name {
		t.Fatalf("directory holds %v, want only %s", ents, name)
	}
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	sink := &durable.FileSink[*checkpoint.Snapshot]{Path: path}
	first := ckptSample()
	if _, err := sink.WriteSnapshot(first); err != nil {
		t.Fatal(err)
	}
	second := ckptSample()
	second.Seq = 4
	second.Ordered = 500000
	if _, err := sink.WriteSnapshot(second); err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 4 || got.Ordered != 500000 {
		t.Fatalf("expected replaced snapshot, got seq=%d ordered=%d", got.Seq, got.Ordered)
	}
	onlyEntry(t, dir, "run.ckpt")
}

// TestWriteFileRenameFails: when the rename cannot happen (the target is a
// non-empty directory), WriteFile reports it, removes its temp file and
// leaves the target as it was.
func TestWriteFileRenameFails(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "state")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(target, "keep")
	if err := os.WriteFile(keep, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteFile(target, []byte("new")); err == nil {
		t.Fatal("rename onto a non-empty directory succeeded")
	}
	onlyEntry(t, dir, "state")
	if b, err := os.ReadFile(keep); err != nil || string(b) != "old" {
		t.Fatalf("target changed: %q, %v", b, err)
	}
}

// TestSinksRoundTrip: FileSink and MemSink store exactly Marshal's bytes for
// both snapshot types, and those bytes decode back to the snapshot.
func TestSinksRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ck, st := ckptSample(), streamSample()
	ckBytes, _ := ck.Marshal()
	stBytes, _ := st.Marshal()

	ckFile := &durable.FileSink[*checkpoint.Snapshot]{Path: filepath.Join(dir, "run.ohmc")}
	stFile := &durable.FileSink[*stream.Snapshot]{Path: filepath.Join(dir, "s.ohmt")}
	ckMem := &durable.MemSink[*checkpoint.Snapshot]{}
	stMem := &durable.MemSink[*stream.Snapshot]{}
	for _, c := range []struct {
		name  string
		write func() (int64, error)
		bytes func() []byte
		want  []byte
	}{
		{"ohmc file", func() (int64, error) { return ckFile.WriteSnapshot(ck) }, func() []byte { b, _ := os.ReadFile(ckFile.Path); return b }, ckBytes},
		{"ohmt file", func() (int64, error) { return stFile.WriteSnapshot(st) }, func() []byte { b, _ := os.ReadFile(stFile.Path); return b }, stBytes},
		{"ohmc mem", func() (int64, error) { return ckMem.WriteSnapshot(ck) }, ckMem.Bytes, ckBytes},
		{"ohmt mem", func() (int64, error) { return stMem.WriteSnapshot(st) }, stMem.Bytes, stBytes},
	} {
		n, err := c.write()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := c.bytes(); n != int64(len(c.want)) || !bytes.Equal(got, c.want) {
			t.Fatalf("%s: reported %d bytes, stored %d, Marshal gives %d", c.name, n, len(got), len(c.want))
		}
	}
	if ckMem.Writes() != 1 || stMem.Writes() != 1 {
		t.Fatalf("MemSink writes %d/%d, want 1/1", ckMem.Writes(), stMem.Writes())
	}
	if got, err := checkpoint.ReadFile(ckFile.Path); err != nil || !reflect.DeepEqual(got, ck) {
		t.Fatalf("OHMC file decodes to %+v, %v", got, err)
	}
	if got, err := stream.Unmarshal(stBytes); err != nil || !reflect.DeepEqual(got, st) {
		t.Fatalf("OHMT file decodes to %+v, %v", got, err)
	}
}

// TestReaderBoundedReads: the shared reads span more than one buffer, keep
// the checksum, and fail on a short read rather than allocating what a
// corrupt length advertises.
func TestReaderBoundedReads(t *testing.T) {
	le := binary.LittleEndian
	var b []byte
	want64 := make([]uint64, 1000) // two buffers' worth
	for i := range want64 {
		want64[i] = uint64(i) << 33
		b = le.AppendUint64(b, want64[i])
	}
	want32 := make([]uint32, 3000)
	for i := range want32 {
		want32[i] = uint32(i) * 7
		b = le.AppendUint32(b, want32[i])
	}
	b = le.AppendUint32(b, durable.Checksum(b))

	r := durable.NewReader(bytes.NewReader(b))
	got64 := make([]uint64, len(want64))
	if err := r.U64s(got64); err != nil || !reflect.DeepEqual(got64, want64) {
		t.Fatalf("U64s: %v", err)
	}
	got32, err := r.U32s(uint32(len(want32)))
	if err != nil || !reflect.DeepEqual(got32, want32) {
		t.Fatalf("U32s: %v", err)
	}
	if err := r.CheckTrailer("test"); err != nil {
		t.Fatal(err)
	}
	if empty, err := durable.NewReader(bytes.NewReader(nil)).U32s(0); empty != nil || err != nil {
		t.Fatalf("U32s(0) = %v, %v; want nil, nil", empty, err)
	}
	if _, err := durable.NewReader(bytes.NewReader(b[:64])).U32s(1 << 31); err == nil {
		t.Fatal("U32s of an absurd length over 64 bytes succeeded")
	}
	b[0] ^= 1
	r = durable.NewReader(bytes.NewReader(b))
	_ = r.U64s(got64)
	_, _ = r.U32s(uint32(len(want32)))
	if err := r.CheckTrailer("test"); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("flipped byte: %v", err)
	}
}
