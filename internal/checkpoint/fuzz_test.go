package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointDecode drives arbitrary bytes through the OHMC decoder. OHMC
// arrives from outside the process (lease snapshots, /cluster/report
// remainders), so the contract is: never panic, and an accepted input is
// exactly the encoding of what it decoded to — Marshal reproduces the prefix
// the decoder consumed, byte for byte.
func FuzzCheckpointDecode(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("..", "engine", "testdata", "*.ohmc"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no OHMC goldens: %v", err)
	}
	for _, path := range goldens {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	valid, _ := sample().Marshal()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Unmarshal(data)
		if err != nil {
			return // rejection is always fine; panics are not
		}
		enc, err := s.Marshal()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("accepted input does not re-encode to its own prefix (%d bytes re-encoded, %d given)", len(enc), len(data))
		}
	})
}
