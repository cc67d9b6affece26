package ohminer

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
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

// TestWithDeadlineContract: a run WithDeadline cut short returns its
// partial counts, Truncated and a nil error; the caller's own cancellation
// still reports; a Session never caches a cut run, and answers a cached
// query whatever its deadline.
func TestWithDeadlineContract(t *testing.T) {
	h, err := GenerateDataset(GeneratorConfig{Name: "d", NumVertices: 250, NumEdges: 4000,
		Communities: 6, MemberOverlap: 2, EdgeSizeMin: 2, EdgeSizeMax: 6, EdgeSizeMean: 3, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(h)
	p, err := ParsePattern("0 1; 1 2; 2 3")
	if err != nil {
		t.Fatal(err)
	}
	full, err := Mine(store, p, WithWorkers(1))
	if err != nil || full.Truncated {
		t.Fatalf("full run: truncated=%v err=%v", full.Truncated, err)
	}
	if full.Elapsed < 5*time.Millisecond {
		t.Skipf("workload too fast (%v) to truncate reliably", full.Elapsed)
	}

	cut, err := Mine(store, p, WithWorkers(1), WithDeadline(time.Millisecond))
	if err != nil || !cut.Truncated || cut.Ordered >= full.Ordered {
		t.Fatalf("1ms deadline: Ordered=%d truncated=%v err=%v, full run counted %d", cut.Ordered, cut.Truncated, err, full.Ordered)
	}

	est, err := EstimateCount(store, p, 1, 1, WithWorkers(1), WithDeadline(time.Millisecond))
	if err != nil || est.SampledRoots >= est.TotalRoots {
		t.Fatalf("estimate, 1ms deadline: %d of %d roots, err=%v", est.SampledRoots, est.TotalRoots, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineContext(ctx, store, p, WithWorkers(1), WithDeadline(time.Millisecond)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller: err=%v, want context.Canceled", err)
	}

	s := NewSession(store)
	cut, err = s.Mine(p, WithWorkers(1), WithDeadline(time.Millisecond))
	if err != nil || !cut.Truncated {
		t.Fatalf("session, 1ms deadline: truncated=%v err=%v", cut.Truncated, err)
	}
	if n := s.CachedResults(); n != 0 {
		t.Fatalf("a cut run was cached (%d results)", n)
	}
	res, err := s.Mine(p, WithWorkers(1))
	if err != nil || res.Truncated || res.Ordered != full.Ordered {
		t.Fatalf("session, no deadline: Ordered=%d truncated=%v err=%v, want %d", res.Ordered, res.Truncated, err, full.Ordered)
	}
	hits, _ := s.ResultCacheStats()
	res, err = s.Mine(p, WithWorkers(1), WithDeadline(time.Nanosecond))
	if err != nil || res.Truncated || res.Ordered != full.Ordered {
		t.Fatalf("session, cached, 1ns deadline: Ordered=%d truncated=%v err=%v, want the cached %d", res.Ordered, res.Truncated, err, full.Ordered)
	}
	if after, _ := s.ResultCacheStats(); after != hits+1 {
		t.Fatalf("result cache hits %d → %d, want one more", hits, after)
	}
}
