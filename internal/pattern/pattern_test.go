package pattern

import (
	"errors"
	"math/rand"
	"testing"

	"ohminer/internal/gen"
	"ohminer/internal/intset"
)

// fig1Pattern is the pattern of Figure 1(a): pe1 (6 verts), pe2 (6 verts),
// pe3 (8 verts) with |pe1∩pe2|=|pe1∩pe3|=|pe1∩pe2∩pe3|=3, |pe2∩pe3|=5.
func fig1Pattern(t *testing.T) *Pattern {
	t.Helper()
	p, err := New([][]uint32{
		{0, 1, 2, 3, 4, 5},
		{3, 4, 5, 6, 7, 8},
		{3, 4, 5, 6, 7, 9, 10, 11},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewBasics(t *testing.T) {
	p := fig1Pattern(t)
	if p.NumEdges() != 3 || p.NumVertices() != 12 {
		t.Fatalf("%d edges, %d vertices", p.NumEdges(), p.NumVertices())
	}
	if p.Degree(2) != 8 {
		t.Fatalf("Degree(2)=%d", p.Degree(2))
	}
	s := p.Signature()
	if s.Size(0b011) != 3 || s.Size(0b110) != 5 || s.Size(0b111) != 3 {
		t.Fatalf("signature: %v", s.Sizes)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, err := New([][]uint32{{0, 1}, {}}, nil); err == nil {
		t.Error("empty edge accepted")
	}
	if _, err := New([][]uint32{{0, 1}, {2, 3}}, nil); !errors.Is(err, ErrDisconnected) {
		t.Errorf("disconnected: %v", err)
	}
	if _, err := New([][]uint32{{0, 1}, {1, 0}}, nil); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := New([][]uint32{{0, 1}}, []uint32{0}); err == nil {
		t.Error("short labels accepted")
	}
}

func TestParseAndString(t *testing.T) {
	p, err := Parse("0 1 2; 2,3; 3 4 5")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEdges() != 3 || p.NumVertices() != 6 {
		t.Fatalf("parsed %s", p)
	}
	rt, err := Parse(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Signature().Equal(p.Signature()) {
		t.Fatal("String/Parse roundtrip changed the pattern")
	}
	if _, err := Parse("0 x"); err == nil {
		t.Error("bad literal accepted")
	}
}

func TestReorderValidation(t *testing.T) {
	p := fig1Pattern(t)
	if _, err := p.Reorder([]int{0, 1}); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := p.Reorder([]int{0, 0, 1}); err == nil {
		t.Error("repeated index accepted")
	}
	if _, err := p.Reorder([]int{0, 1, 5}); err == nil {
		t.Error("out-of-range index accepted")
	}
	rp, err := p.Reorder([]int{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Degree(0) != 8 {
		t.Fatal("Reorder did not move edges")
	}
}

func TestAutomorphisms(t *testing.T) {
	// A "triangle" of 2-vertex hyperedges: every permutation preserves
	// structure except those breaking the shared-vertex pattern; each edge
	// pair overlaps in exactly 1 vertex and the triple overlap is empty, so
	// all 3! permutations are automorphisms.
	tri := MustNew([][]uint32{{0, 1}, {1, 2}, {0, 2}}, nil)
	if got := tri.Automorphisms(); got != 6 {
		t.Fatalf("triangle automorphisms=%d want 6", got)
	}
	// The Figure 1 pattern: pe1 and pe2 both have degree 6, but
	// |pe1∩pe3|=3 ≠ |pe2∩pe3|=5, so only the identity survives.
	p := fig1Pattern(t)
	if got := p.Automorphisms(); got != 1 {
		t.Fatalf("fig1 automorphisms=%d want 1", got)
	}
	// A path of three edges where the ends are symmetric.
	path := MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil)
	if got := path.Automorphisms(); got != 2 {
		t.Fatalf("path automorphisms=%d want 2", got)
	}
}

func TestAutomorphismsLabeled(t *testing.T) {
	// Same path; labels break the end symmetry.
	labeled := MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, []uint32{0, 1, 1, 1})
	if got := labeled.Automorphisms(); got != 1 {
		t.Fatalf("labeled path automorphisms=%d want 1", got)
	}
	sym := MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, []uint32{0, 1, 1, 0})
	if got := sym.Automorphisms(); got != 2 {
		t.Fatalf("symmetric labeled path automorphisms=%d want 2", got)
	}
}

func TestSampleRespectsBounds(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 200, NumEdges: 500,
		Communities: 10, MemberOverlap: 1, EdgeSizeMin: 3, EdgeSizeMax: 10, EdgeSizeMean: 5, Seed: 31})
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		p, err := Sample(h, 3, 6, 25, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumEdges() != 3 {
			t.Fatalf("NumEdges=%d", p.NumEdges())
		}
		if p.NumVertices() < 6 || p.NumVertices() > 25 {
			t.Fatalf("NumVertices=%d outside [6,25]", p.NumVertices())
		}
	}
}

func TestSampleDenseAllPairsOverlap(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 150, NumEdges: 600,
		Communities: 6, MemberOverlap: 1.5, EdgeSizeMin: 4, EdgeSizeMax: 12, EdgeSizeMean: 7, Seed: 32})
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		p, err := SampleDense(h, 4, 4, 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p.NumEdges(); i++ {
			for j := i + 1; j < p.NumEdges(); j++ {
				if !intset.Intersects(p.Edge(i), p.Edge(j)) {
					t.Fatalf("dense pattern %s has disconnected pair (%d,%d)", p, i, j)
				}
			}
		}
	}
}

func TestSampleImpossible(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 10, NumEdges: 5,
		Communities: 1, EdgeSizeMin: 2, EdgeSizeMax: 3, EdgeSizeMean: 2.5, Seed: 33})
	rng := rand.New(rand.NewSource(11))
	if _, err := Sample(h, 3, 100, 200, rng); err == nil {
		t.Fatal("impossible vertex range accepted")
	}
}

func TestSampleSetAndSettings(t *testing.T) {
	settings := Settings()
	if len(settings) != 5 || settings[0].NumEdges != 2 || settings[4].NumEdges != 6 {
		t.Fatalf("settings: %+v", settings)
	}
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 300, NumEdges: 900,
		Communities: 12, MemberOverlap: 1.2, EdgeSizeMin: 3, EdgeSizeMax: 12, EdgeSizeMean: 6, Seed: 34})
	ps, err := SampleSet(h, settings[1], 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != settings[1].Count {
		t.Fatalf("got %d patterns", len(ps))
	}
	// Determinism.
	ps2, err := SampleSet(h, settings[1], 77)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if ps[i].String() != ps2[i].String() {
			t.Fatal("SampleSet not deterministic")
		}
	}
}

func TestSampleInheritsLabels(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 200, NumEdges: 400,
		Communities: 8, MemberOverlap: 1, EdgeSizeMin: 3, EdgeSizeMax: 8, EdgeSizeMean: 5,
		NumLabels: 4, Seed: 35})
	rng := rand.New(rand.NewSource(12))
	p, err := Sample(h, 3, 4, 25, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Labeled() {
		t.Fatal("sampled pattern lost labels")
	}
	if _, err := p.LabelSignature(); err != nil {
		t.Fatal(err)
	}
}
