package hypergraph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"testing"
)

// FuzzParse hardens the text parser: arbitrary input must never panic, and
// anything that parses must survive a write/parse roundtrip with identical
// structure.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"0 1 2\n2 3\n",
		"# c\n0 1\n#labels\n0 1\n1 0\n",
		"0 1\n#edgelabels\n0 7\n",
		"",
		"#labels\n",
		"0",
		"4294967295\n", // sparse-id guard: must be rejected, not allocated
		"0 0 0\n",
		"1 2\n\n\n3 4 1\n% x\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		h, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := h.Write(&buf); err != nil {
			t.Fatalf("write after parse: %v", err)
		}
		h2, err := Parse(&buf)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if h2.NumEdges() != h.NumEdges() || h2.TotalIncidence() != h.TotalIncidence() {
			t.Fatalf("roundtrip mismatch: %s vs %s", h, h2)
		}
	})
}

// referenceBuild is BuildEdgeLabeled as it was before the edge CSR was
// written in one pass: every edge normalized into its own slice, duplicates
// found through a map from a byte-encoded maphash to the edge indices that
// carry it, the CSR copied out of the survivors. FuzzBuild holds Build to it.
func referenceBuild(numVertices int, edges [][]uint32, labels, edgeLabels []uint32) (*Hypergraph, error) {
	if labels != nil && len(labels) != numVertices {
		return nil, fmt.Errorf("hypergraph: %d labels for %d vertices", len(labels), numVertices)
	}
	if edgeLabels != nil && len(edgeLabels) != len(edges) {
		return nil, fmt.Errorf("hypergraph: %d edge labels for %d hyperedges", len(edgeLabels), len(edges))
	}
	var norm [][]uint32
	var normLabels []uint32
	for i, raw := range edges {
		if len(raw) == 0 {
			continue
		}
		e := slices.Clone(raw)
		slices.Sort(e)
		e = slices.Compact(e)
		if int(e[len(e)-1]) >= numVertices {
			return nil, fmt.Errorf("hypergraph: vertex %d out of range [0,%d)", e[len(e)-1], numVertices)
		}
		norm = append(norm, e)
		if edgeLabels != nil {
			normLabels = append(normLabels, edgeLabels[i])
		}
	}
	if len(norm) == 0 {
		return nil, ErrEmpty
	}
	seed := maphash.MakeSeed()
	byHash := map[uint64][]int{}
	var uniq [][]uint32
	var uniqLabels []uint32
	for i, e := range norm {
		var enc []byte
		for _, v := range e {
			enc = binary.LittleEndian.AppendUint32(enc, v)
		}
		hv := maphash.Bytes(seed, enc)
		dup := false
		for _, k := range byHash[hv] {
			if slices.Equal(uniq[k], e) && (normLabels == nil || uniqLabels[k] == normLabels[i]) {
				dup = true
			}
		}
		if dup {
			continue
		}
		byHash[hv] = append(byHash[hv], len(uniq))
		uniq = append(uniq, e)
		if normLabels != nil {
			uniqLabels = append(uniqLabels, normLabels[i])
		}
	}
	h := &Hypergraph{edgeLabels: uniqLabels}
	if labels != nil {
		h.labels = slices.Clone(labels)
		h.numLabels = int(slices.Max(labels)) + 1
	}
	h.edgeOff = []uint32{0}
	for _, e := range uniq {
		h.edgeVerts = append(h.edgeVerts, e...)
		h.edgeOff = append(h.edgeOff, uint32(len(h.edgeVerts)))
	}
	h.vertSpan = make([]span, numVertices)
	for v := 0; v < numVertices; v++ {
		lo := uint32(len(h.vertEdges))
		for e, verts := range uniq {
			if _, ok := slices.BinarySearch(verts, uint32(v)); ok {
				h.vertEdges = append(h.vertEdges, uint32(e))
			}
		}
		h.vertSpan[v] = span{lo, uint32(len(h.vertEdges))}
	}
	return h, nil
}

// FuzzBuild feeds BuildEdgeLabeled arbitrary raw edge lists — unsorted,
// repeated vertices, empty edges, duplicates with equal and with different
// edge labels, out-of-range vertices, label tables of the wrong length. It
// must not panic, must not write to its input, must refuse exactly what
// referenceBuild refuses (same message) and must otherwise equal it table
// for table.
//
// Input bytes: numVertices, then a flags byte (bit 0: vertex labels, bit 1:
// edge labels, bit 2: one label too few), then edges, each a length byte
// (its low 3 bits; bit 3 marks edge label 1) followed by that many vertices.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{6, 0, 3, 2, 1, 0, 2, 4, 5, 0})
	f.Add([]byte{6, 3, 3, 0, 1, 2, 11, 2, 1, 0, 3, 0, 1, 2, 0, 2, 3, 3})
	f.Add([]byte{4, 2, 2, 1, 1, 10, 1, 1, 2, 3, 9})
	f.Add([]byte{3, 7, 1, 0, 1, 1, 1, 2})
	f.Add([]byte{2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nv, flags, data := int(data[0]%32), data[1], data[2:]
		var edges [][]uint32
		var edgeLabels []uint32
		for len(data) > 0 {
			n := int(data[0] & 7)
			label := uint32(data[0] >> 3 & 1)
			data = data[1:]
			e := []uint32{}
			for ; n > 0 && len(data) > 0; n-- {
				e = append(e, uint32(data[0]%40))
				data = data[1:]
			}
			edges = append(edges, e)
			edgeLabels = append(edgeLabels, label)
		}
		var labels []uint32
		if flags&1 != 0 {
			for v := 0; v < nv; v++ {
				labels = append(labels, uint32(v%3))
			}
		}
		if flags&2 == 0 {
			edgeLabels = nil
		}
		if flags&4 != 0 && len(edgeLabels) > 0 {
			edgeLabels = edgeLabels[1:]
		}
		input := make([][]uint32, len(edges))
		for i, e := range edges {
			input[i] = slices.Clone(e)
		}

		want, wantErr := referenceBuild(nv, edges, labels, edgeLabels)
		got, err := BuildEdgeLabeled(nv, edges, labels, edgeLabels)
		for i := range edges {
			if !slices.Equal(edges[i], input[i]) {
				t.Fatalf("edge %d written to: %v, was %v", i, edges[i], input[i])
			}
		}
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if err != nil {
			if errors.Is(wantErr, ErrEmpty) != errors.Is(err, ErrEmpty) {
				t.Fatalf("error %v is not ErrEmpty as the reference's is", err)
			}
			return
		}
		for _, tab := range []struct {
			name      string
			want, got []uint32
		}{
			{"edgeOff", want.edgeOff, got.edgeOff},
			{"edgeVerts", want.edgeVerts, got.edgeVerts},
			{"vertEdges", want.vertEdges, got.vertEdges},
			{"labels", want.labels, got.labels},
			{"edgeLabels", want.edgeLabels, got.edgeLabels},
		} {
			if !slices.Equal(tab.want, tab.got) || (tab.want == nil) != (tab.got == nil) {
				t.Fatalf("%s: %v, reference %v", tab.name, tab.got, tab.want)
			}
		}
		if !slices.Equal(got.vertSpan, want.vertSpan) {
			t.Fatalf("vertSpan: %v, reference %v", got.vertSpan, want.vertSpan)
		}
		if got.numLabels != want.numLabels || got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("numLabels %d fingerprint %#x, reference %d %#x", got.numLabels, got.Fingerprint(), want.numLabels, want.Fingerprint())
		}
	})
}
