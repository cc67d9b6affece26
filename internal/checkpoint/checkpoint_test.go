package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ohminer/internal/durable"
)

func sample() *Snapshot {
	return &Snapshot{
		Seq:     3,
		PlanFP:  0xdeadbeefcafe,
		GraphFP: 0x1234567890ab,
		Ordered: 424242,
		Stats:   []uint64{1, 2, 3, 4, 5},
		Frontier: []Task{
			{Depth: 0, Prefix: nil, Cands: []uint32{7, 8, 9}},
			{Depth: 2, Prefix: []uint32{10, 11}, Cands: []uint32{100}},
			{Depth: 1, Prefix: []uint32{5}, Cands: nil},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	b, err := want.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	want := sample()
	n, err := (&durable.FileSink[*Snapshot]{Path: path}).WriteSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != fi.Size() || n == 0 {
		t.Fatalf("reported %d bytes, file has %d", n, fi.Size())
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("file round trip mismatch")
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("unexpected files in checkpoint dir: %v", entries)
	}
}

// TestCorruptionRejected flips/truncates bytes all over a valid snapshot and
// requires every mutation to be rejected (no panic, no silent success with
// altered content).
func TestCorruptionRejected(t *testing.T) {
	valid, err := sample().Marshal()
	if err != nil {
		t.Fatal(err)
	}

	// Truncations at every prefix length.
	for cut := 0; cut < len(valid); cut++ {
		if _, err := Decode(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// Single-byte flips.
	for i := 0; i < len(valid); i++ {
		mut := bytes.Clone(valid)
		mut[i] ^= 0x5a
		got, err := Decode(bytes.NewReader(mut))
		if err == nil && reflect.DeepEqual(got, sample()) {
			continue // flip landed in redundant encoding space, content intact
		}
		if err == nil {
			t.Fatalf("bit flip at %d accepted with altered content", i)
		}
	}
	// Trailing garbage after the trailer is ignored by Decode (a stream may
	// embed a snapshot), but a corrupt trailer is not.
	mut := bytes.Clone(valid)
	mut[len(mut)-1] ^= 0xff
	if _, err := Decode(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt trailer: got %v, want ErrCorrupt", err)
	}
}

func TestVersionAndMagic(t *testing.T) {
	valid, err := sample().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	wrongMagic := bytes.Clone(valid)
	wrongMagic[0] ^= 0xff
	if _, err := Decode(bytes.NewReader(wrongMagic)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: got %v", err)
	}
	wrongVersion := bytes.Clone(valid)
	wrongVersion[8] = 99
	if _, err := Decode(bytes.NewReader(wrongVersion)); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("future version must fail with a version error, got %v", err)
	}
}

func TestAbsurdLengthsRejected(t *testing.T) {
	// A frontier length of 2^40 must error out without trying to allocate
	// the advertised space.
	s := sample()
	mut, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Offset of ntasks: 7 header u64s + 5 stats u64s = 12*8 = 96.
	copy(mut[96:104], []byte{0, 0, 0, 0, 1, 0, 0, 0})
	if _, err := Decode(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absurd frontier length: got %v", err)
	}
}

func TestEmptySnapshot(t *testing.T) {
	want := &Snapshot{Seq: 1, PlanFP: 1, GraphFP: 2, Ordered: 0}
	b, err := want.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("empty snapshot mismatch: %+v vs %+v", want, got)
	}
}
