package hypergraph_test

import (
	"math/rand"
	"testing"

	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
)

// buildGoldenInputs are the inputs BuildEdgeLabeled's fingerprints are pinned
// on: generator presets (edges arrive sorted and distinct), the benchmark's
// dense block layout (long strictly ascending edges, the fast path), and a
// messy hyperedge-labelled input (unsorted, repeated vertices, duplicate
// hyperedges with equal and with different labels, empty edges).
func buildGoldenInputs(t *testing.T) map[string]*hypergraph.Hypergraph {
	t.Helper()
	out := map[string]*hypergraph.Hypergraph{}
	for _, tag := range []string{"CH", "SB", "WT", "TC"} {
		pr, err := gen.PresetByTag(tag)
		if err != nil {
			t.Fatal(err)
		}
		out[tag] = gen.MustGenerate(pr.Config)
	}

	var blocks [][]uint32
	next := uint32(0)
	for _, c := range []uint32{64, 160, 256} {
		for i := uint32(0); i < 36; i++ {
			e := make([]uint32, 0, c+1)
			for v := uint32(0); v < c; v++ {
				e = append(e, next+v)
			}
			blocks = append(blocks, append(e, next+c+i))
		}
		next += c + 36
		for hub := 0; hub < 20; hub++ {
			blocks = append(blocks, []uint32{next, next + 1}, []uint32{next, next + 2})
			next += 3
		}
	}
	h, err := hypergraph.Build(int(next), blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	out["dense-block"] = h

	rng := rand.New(rand.NewSource(77))
	var messy [][]uint32
	var labels []uint32
	for i := 0; i < 400; i++ {
		var e []uint32
		for k := rng.Intn(7); k > 0; k-- {
			e = append(e, uint32(rng.Intn(30)))
		}
		messy = append(messy, e)
		labels = append(labels, uint32(rng.Intn(2)))
		if rng.Intn(4) == 0 {
			messy = append(messy, append([]uint32(nil), e...))
			labels = append(labels, uint32(rng.Intn(2)))
		}
	}
	vlabels := make([]uint32, 30)
	for v := range vlabels {
		vlabels[v] = uint32(v % 3)
	}
	h, err = hypergraph.BuildEdgeLabeled(30, messy, vlabels, labels)
	if err != nil {
		t.Fatal(err)
	}
	out["messy-edge-labelled"] = h
	return out
}

// TestBuildFingerprintsPinned: the values were printed by this test at the
// commit before Build stopped copying and comparison-sorting edges that
// arrive strictly ascending and started hashing an edge in one write. Build
// must keep producing the same hypergraph, hyperedge IDs included — stores,
// snapshots and cluster leases are tied to the fingerprint.
func TestBuildFingerprintsPinned(t *testing.T) {
	want := map[string]struct {
		edges int
		fp    uint64
	}{
		"CH":                  {7818, 0x35be0555ee91c38a},
		"SB":                  {2916, 0xdcfee7aeb2b756a4},
		"WT":                  {6991, 0xb7dad93f4ef52b10},
		"TC":                  {23320, 0x9f1feed155a5252},
		"dense-block":         {228, 0xa08aa941d55a7162},
		"messy-edge-labelled": {356, 0x59807932ead85215},
	}
	for name, h := range buildGoldenInputs(t) {
		w, ok := want[name]
		if !ok || h.NumEdges() != w.edges || h.Fingerprint() != w.fp {
			t.Errorf("%q: {%d, %#x}, pinned %+v", name, h.NumEdges(), h.Fingerprint(), w)
		}
	}
}
