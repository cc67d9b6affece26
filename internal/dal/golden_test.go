package dal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
)

// storeGoldenInputs are the hypergraphs the saved store bytes are pinned on:
// the inputs hypergraph's TestBuildFingerprintsPinned pins (the generator
// presets, the benchmark's dense block layout and a messy hyperedge-labelled
// input; the two test packages cannot share the builder, so it is repeated
// here and the pinned fingerprints keep the copies equal), plus "wide": two
// hyperedges of 70 000 vertices sharing all of them and a third crossing
// both, so degrees and overlap sizes do not fit in 16 bits.
func storeGoldenInputs(t testing.TB) map[string]*hypergraph.Hypergraph {
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
	out["dense-block"] = hypergraph.MustBuild(int(next), blocks, nil)

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
	h, err := hypergraph.BuildEdgeLabeled(30, messy, vlabels, labels)
	if err != nil {
		t.Fatal(err)
	}
	out["messy-edge-labelled"] = h

	const wide = 70000
	a := make([]uint32, wide)
	for v := range a {
		a[v] = uint32(v)
	}
	b := append(a[1:wide:wide], wide)
	out["wide"] = hypergraph.MustBuild(wide+2, [][]uint32{a, b, {0, wide - 1, wide, wide + 1}}, nil)
	return out
}

// TestStoreBytesPinned: the SHA-256 of every golden input's saved store.
// The values were printed by this test at the commit before Build gathered
// each hyperedge's neighbourhood in one walk; the saved bytes are the store's
// tables in order, so any change to adjacency order, group keys or group
// starts shows here.
func TestStoreBytesPinned(t *testing.T) {
	want := map[string]string{
		"CH":                  "4eaa43fe75fa194f2d66711af5499a390aab19f87cb44d4496f0f61f22a8b898",
		"SB":                  "73ccaf103db7216390faa110072340b34886aaa20d9ab9b7f5347de4da224502",
		"WT":                  "94837e3334248fd06357d10369591a15b73bef6ae4cfefc7470eb16f4f56130c",
		"TC":                  "277345e5d033e174250995504ec0cda8ff9864efd8a358c3843e4cd683a9b8af",
		"dense-block":         "2816db2a90ce69ad1c87709a98739991c45d94cff5abfe8c6a54d49e1becd464",
		"messy-edge-labelled": "085706dbac096b82445bb659b88191b90a25c398aa09029f3a1286eb0db87d30",
		"wide":                "9adb4f860027898aa9c07663b654ce0b7208dfae85f3e2ec093740d83c2c6f68",
	}
	for name, h := range storeGoldenInputs(t) {
		var buf bytes.Buffer
		if err := Build(h).Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%q: store SHA-256 %s, pinned %q", name, got, want[name])
		}
	}
}
