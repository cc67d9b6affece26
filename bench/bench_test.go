package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"ohminer"
	"ohminer/internal/bruteforce"
	"ohminer/internal/mbv"
)

var updateGolden = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// benchmarkFile is BENCHMARK.json; runSeconds and the command are fixed
// here, everything else mirrors the package's tables.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDesc `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadDesc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func wantBenchmarkFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 15,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadDesc{w.name, w.why})
	}
	return f
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's tables the same
// list, and inside the limits the driver puts on the file.
func TestBenchmarkJSON(t *testing.T) {
	want := wantBenchmarkFile()
	if *updateGolden {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the harness's tables; run go test -run TestBenchmarkJSON -update")
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the driver takes 2 to 8", n)
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, the driver takes 200", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range want.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		seen[d.Name] = true
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 1 to 128", n)
	}
	for _, d := range want.PerLayer {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestTinyWorkloads runs every workload end to end at -scale tiny, untraced
// and traced, so that a change of the APIs the benchmark drives fails tier-1
// tests and not the next benchmark run.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seed: 1, seconds: 1, trace: trace, tiny: true, dir: t.TempDir(), log: io.Discard}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed", w.name, trace, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := res.Metrics[d.Name]; !ok || (!trace && v.Value <= 0) {
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, d.Name, v.Value)
				}
			}
		}
	}
}

// TestSeedChangesInputsNotCounts: two seeds give different scripts, and the
// same seed the same script.
func TestSeedChangesInputsNotCounts(t *testing.T) {
	script := func(seed int64) []string {
		ops, err := catalogOps("mine_sparse", &env{seed: seed, tiny: true}, 5)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, op := range ops {
			out = append(out, op.name)
		}
		return out
	}
	if a, b := script(1), script(1); !reflect.DeepEqual(a, b) {
		t.Errorf("seed 1 gave %v, then %v", a, b)
	}
	if a, b := script(1), script(2); reflect.DeepEqual(a, b) {
		t.Errorf("seeds 1 and 2 gave the same script %v", a)
	}
}

// TestServeMixIsTheSameWorkForEverySeed: whatever the seed, every pattern is
// asked for the same number of times in each class, after its cold request.
func TestServeMixIsTheSameWorkForEverySeed(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ entry, class int }
	var first map[key]int
	for seed := int64(1); seed <= 20; seed++ {
		in := &serveInst{entries: cat["serve_mix"]}
		if err := in.buildScript(rngFor(seed, "serve_mix")); err != nil {
			t.Fatal(err)
		}
		counts := map[key]int{}
		for pos, r := range in.script {
			counts[key{r.entry, r.class}]++
			if r.class != classAt(pos) || r.entry > pos/serveColdStep {
				t.Fatalf("seed %d: request %d is class %d for pattern %d", seed, pos, r.class, r.entry)
			}
		}
		if first == nil {
			first = counts
		} else if !reflect.DeepEqual(counts, first) {
			t.Errorf("seed %d asks for a different mix than seed 1", seed)
		}
	}
}

// TestCatalogAgainstOracles recounts catalogue patterns with the two
// independent reference miners, as far as those can go. Brute force tries
// every tuple of hyperedges with the pattern's degrees: where that is under
// 300 000 tuples on the full preset it must return the committed count, and
// where it is on a 1:20 sample of the preset it must agree with Mine there.
// Match-by-vertex is exponential in the pattern's vertices, so it joins in
// on the sample for patterns of at most four vertices.
func TestCatalogAgainstOracles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the TC and CH presets")
	}
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range catalogSpecs {
		ps, err := ohminer.DatasetPresetByTag(spec.preset)
		if err != nil {
			t.Fatal(err)
		}
		h, err := ohminer.GenerateDataset(ps.Config)
		if err != nil {
			t.Fatal(err)
		}
		small := ps.Config
		small.NumVertices, small.NumEdges, small.Communities = small.NumVertices/20, small.NumEdges/20, small.Communities/20+1
		hs, err := ohminer.GenerateDataset(small)
		if err != nil {
			t.Fatal(err)
		}
		stores := ohminer.NewStore(hs)
		// tuples is the number of hyperedge tuples brute force tries.
		tuples := func(h *ohminer.Hypergraph, p *ohminer.Pattern) float64 {
			byDegree := map[int]int{}
			for e := 0; e < h.NumEdges(); e++ {
				byDegree[h.Degree(uint32(e))]++
			}
			n := 1.0
			for e := 0; e < p.NumEdges(); e++ {
				n *= float64(byDegree[p.Degree(e)])
			}
			return n
		}
		full, sampled, byVertexN := 0, 0, 0
		deadline := time.Now().Add(2 * time.Second)
		for _, ce := range cat[spec.workload] {
			if time.Now().After(deadline) {
				break
			}
			p, err := ohminer.ParsePattern(ce.Pattern)
			if err != nil {
				t.Fatal(err)
			}
			if tuples(h, p) < 3e5 {
				if got := bruteforce.Count(h, p); got != ce.Ordered {
					t.Errorf("%s %q: catalogue says %d ordered, brute force %d", spec.workload, ce.Pattern, ce.Ordered, got)
				}
				full++
			}
			if tuples(hs, p) < 3e5 {
				res, err := ohminer.Mine(stores, p, ohminer.WithWorkers(1))
				if err != nil {
					t.Fatal(err)
				}
				if bf := bruteforce.Count(hs, p); bf != res.Ordered {
					t.Errorf("%s %q on the sample: Mine %d, brute force %d", spec.workload, ce.Pattern, res.Ordered, bf)
				}
				sampled++
				if p.NumVertices() <= 4 {
					byVertex, err := mbv.Mine(hs, p)
					if err != nil {
						t.Fatal(err)
					}
					if byVertex.Ordered != res.Ordered {
						t.Errorf("%s %q on the sample: Mine %d, match-by-vertex %d", spec.workload, ce.Pattern, res.Ordered, byVertex.Ordered)
					}
					byVertexN++
				}
			}
		}
		t.Logf("%s: %d patterns recounted by brute force on the preset, %d on its sample, %d of those by match-by-vertex too", spec.workload, full, sampled, byVertexN)
	}
}
