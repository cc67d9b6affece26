package ohminer

import (
	"strings"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	h, err := BuildHypergraph(15, [][]uint32{
		{0, 1, 2, 3, 4, 5},
		{3, 4, 5, 6, 7, 8},
		{3, 4, 5, 6, 7, 9, 10, 11},
		{0, 1, 2, 9, 12, 13},
		{1, 3, 4, 5, 6, 7, 8, 14},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(h)
	p, err := NewPattern([][]uint32{
		{0, 1, 2, 3, 4, 5},
		{3, 4, 5, 6, 7, 8},
		{3, 4, 5, 6, 7, 9, 10, 11},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var seen [][]uint32
	res, err := Mine(store, p, WithWorkers(2), WithEmbeddings(func(c []uint32) {
		seen = append(seen, append([]uint32(nil), c...))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Unique != 1 || len(seen) != 1 {
		t.Fatalf("unique=%d callbacks=%d", res.Unique, len(seen))
	}
	// Every comparison system agrees.
	for _, name := range []string{"OHMiner", "OHM-G", "OHM-V", "OHM-I", "HGMatch"} {
		r, err := MineBaseline(store, p, name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Ordered != res.Ordered || r.Unique != res.Unique || r.Automorphisms != res.Automorphisms {
			t.Fatalf("%s: ordered/unique/aut=%d/%d/%d want %d/%d/%d", name,
				r.Ordered, r.Unique, r.Automorphisms, res.Ordered, res.Unique, res.Automorphisms)
		}
	}
	if _, err := MineBaseline(store, p, "nope", 1); err == nil {
		t.Fatal("unknown baseline accepted")
	}
}

func TestFacadeParseAndCompile(t *testing.T) {
	p, err := ParsePattern("0 1 2; 2 3; 3 4 5")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompilePattern(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CompileTime <= 0 || len(plan.Steps) != 3 {
		t.Fatalf("plan: %v", plan)
	}
}

func TestFacadeDatasetsAndSampling(t *testing.T) {
	if len(DatasetPresets()) != 9 {
		t.Fatalf("presets: %d", len(DatasetPresets()))
	}
	preset, err := DatasetPresetByTag("CH")
	if err != nil {
		t.Fatal(err)
	}
	h, err := GenerateDataset(preset.Config)
	if err != nil {
		t.Fatal(err)
	}
	p, err := SamplePattern(h, 3, 3, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEdges() != 3 {
		t.Fatalf("sampled %d edges", p.NumEdges())
	}
	if _, err := SampleDensePattern(h, 2, 2, 20, 7); err != nil {
		t.Fatal(err)
	}
	if len(PatternSettings()) != 5 {
		t.Fatal("settings")
	}
}

func TestFacadeReadHypergraph(t *testing.T) {
	h, err := ReadHypergraph(strings.NewReader("0 1 2\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 {
		t.Fatalf("%s", h)
	}
}
