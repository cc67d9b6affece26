package dal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ohminer/internal/hypergraph"
)

// FuzzLoad hammers the store decoder with mutated bytes: whatever the input,
// Load must either return a descriptive error or an intact store — never
// panic, and never allocate beyond what the attached hypergraph bounds (the
// header limits are graph-relative, so a hostile length field fails fast).
func FuzzLoad(f *testing.F) {
	h := hypergraph.MustBuild(8, [][]uint32{
		{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {4, 5}, {5, 6, 7}, {0, 7},
	}, nil)
	var buf bytes.Buffer
	if err := Build(h).Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(bytes.Clone(valid))
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	for _, off := range []int{0, 8, 16, 24, 32, 40, 48, 56, 64, len(valid) - 1} {
		mut := bytes.Clone(valid)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	// A version-2 file over the same hypergraph — the same header, one group
	// array fewer, the payload checksummed but not kept — whole and damaged.
	v3 := fileTables(f, Build(h))
	var old []byte
	for _, w := range []uint64{dalMagic, dalVersionDeg, h.Fingerprint(), uint64(len(v3.adjOff)), uint64(len(v3.adj)),
		uint64(len(v3.grpOff)), uint64(len(v3.grpDeg)), uint64(len(v3.grpStart))} {
		old = binary.LittleEndian.AppendUint64(old, w)
	}
	for _, arr := range [][]uint32{v3.adjOff, v3.adj, v3.grpOff, v3.grpDeg, v3.grpStart} {
		for _, v := range arr {
			old = binary.LittleEndian.AppendUint32(old, v)
		}
	}
	old = resealCRC(append(old, 0, 0, 0, 0))
	if _, err := Load(bytes.NewReader(old), h); err != nil {
		f.Fatalf("version-2 seed refused: %v", err)
	}
	f.Add(bytes.Clone(old))
	f.Add(old[:len(old)-5])
	// Mutations under a re-sealed checksum, so the fuzzer starts from inputs
	// that reach validate instead of dying at the trailer.
	for _, off := range []int{64 + 4, 64 + 4*len(v3.adjOff), len(valid) - 8, len(valid) - 4 - 4*len(v3.grpStart) - 4} {
		mut := bytes.Clone(valid)
		mut[off] ^= 0x01
		f.Add(resealCRC(mut))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data), h)
		if err != nil {
			return
		}
		// Whatever is accepted — the original, a version-2 file of it, or a
		// mutation the fuzzer re-sealed — must be the original store, byte
		// for byte, and re-serializable: validate leaves no room for another
		// consistent store over the same hypergraph within reach.
		var out bytes.Buffer
		if err := s.Save(&out); err != nil {
			t.Fatalf("re-save of accepted store failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), valid) {
			t.Fatal("accepted store differs from the original")
		}
	})
}
