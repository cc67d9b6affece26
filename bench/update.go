package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ohminer"
	"ohminer/internal/pattern"
)

// catalogSpec says how -update picks one workload's patterns: sampled from
// the preset with the paper's method (random connected hyperedge sets), kept
// when a single-thread Mine of the pattern falls inside the time band, one
// pattern per isomorphism class. The bands set the length of a round.
type catalogSpec struct {
	workload string
	preset   string
	shapes   []sampleShape // cycled through in order
	n        int
	minMS    float64
	maxMS    float64
}

type sampleShape struct{ edges, vertMin, vertMax int }

var (
	p2 = sampleShape{2, 5, 15}  // the paper's P2
	p3 = sampleShape{3, 10, 20} // the paper's P3
)

var catalogSpecs = []catalogSpec{
	// 30 x P2 and 70 x P3, about 2.7 s a round.
	{"mine_sparse", "TC", []sampleShape{p2, p3, p3, p3, p2, p3, p3, p3, p2, p3}, 100, 4, 80},
	// Shorter jobs, so that the lease protocol and the WAL are a visible
	// share of each.
	{"cluster_job", "TC", []sampleShape{p2, p3, p3}, 100, 8, 24},
	// CH has 18 classes of 2-hyperedge and about 110 of 3-hyperedge patterns,
	// too few for 200 distinct queries, so patterns of up to 6 hyperedges fill
	// the catalogue; the band keeps a cold query in the milliseconds.
	{"serve_mix", "CH", []sampleShape{{2, 4, 10}, {3, 6, 13}, {4, 8, 17}, {5, 10, 20}, {6, 12, 24}, {4, 10, 18}, {5, 12, 22}}, 200, 0.3, 30},
}

// catalogSampleSeed seeds pattern sampling; it is not the run's -seed, which
// only renames and reorders what the catalogue holds.
const catalogSampleSeed = 20250927

func buildCatalogEntries(spec catalogSpec, log func(string, ...any)) ([]catalogEntry, error) {
	ps, err := ohminer.DatasetPresetByTag(spec.preset)
	if err != nil {
		return nil, err
	}
	h, err := ohminer.GenerateDataset(ps.Config)
	if err != nil {
		return nil, err
	}
	store := ohminer.NewStore(h)
	seen := map[string]bool{}
	var out []catalogEntry
	var total float64
	for i := 0; len(out) < spec.n; i++ {
		if i > 400*spec.n {
			return nil, fmt.Errorf("%s: only %d of %d patterns after %d samples; widen the band", spec.workload, len(out), spec.n, i)
		}
		sh := spec.shapes[i%len(spec.shapes)]
		p, err := ohminer.SamplePattern(h, sh.edges, sh.vertMin, sh.vertMax, catalogSampleSeed+int64(i))
		if err != nil {
			continue // no pattern of this shape around the sampled hyperedge
		}
		key, ok := pattern.CanonicalKey(p)
		if !ok || seen[key] {
			continue
		}
		seen[key] = true
		best := time.Duration(1 << 62)
		var res ohminer.Result
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			res, err = ohminer.Mine(store, p, ohminer.WithWorkers(1), ohminer.WithDeadline(time.Duration(2*spec.maxMS*float64(time.Millisecond))))
			if err != nil {
				return nil, err
			}
			if d := time.Since(t0); d < best {
				best = d
			}
			if res.Truncated {
				break
			}
		}
		if res.Truncated || ms(best) < spec.minMS || ms(best) > spec.maxMS {
			continue
		}
		// The same count must come out of the unrestricted enumeration.
		plain, err := ohminer.Mine(store, p, ohminer.WithWorkers(1), ohminer.WithoutSymmetryBreaking())
		if err != nil {
			return nil, err
		}
		if plain.Ordered != res.Ordered || plain.Unique != res.Unique {
			return nil, fmt.Errorf("%s: %q: %d/%d restricted, %d/%d unrestricted", spec.workload, p, res.Ordered, res.Unique, plain.Ordered, plain.Unique)
		}
		out = append(out, catalogEntry{Pattern: p.String(), Ordered: res.Ordered, Unique: res.Unique,
			Aut: res.Automorphisms, MS: float64(int(ms(best)*100)) / 100})
		total += ms(best)
	}
	log("# %s: %d patterns, %.0f ms of single-thread mining a round\n", spec.workload, len(out), total)
	return out, nil
}

// updateCatalog rebuilds catalog.json, one workload's list at a time, and the
// stream workload's expected totals for seeds 1 and 2.
func updateCatalog(cfg runConfig) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	log := func(f string, a ...any) { fmt.Fprintf(cfg.log, f, a...) }
	cat, err := loadCatalog()
	if err != nil {
		return err
	}
	for _, spec := range catalogSpecs {
		if cfg.workload != "" && cfg.workload != spec.workload {
			continue
		}
		entries, err := buildCatalogEntries(spec, log)
		if err != nil {
			return err
		}
		cat[spec.workload] = entries
		if err := writeJSON(filepath.Join(benchDir(), "catalog.json"), cat); err != nil {
			return err
		}
	}
	if cfg.workload == "" || cfg.workload == "stream_window" {
		for _, seed := range []int64{1, 2} {
			in, err := streamFeed(&env{seed: seed}, true)
			if err != nil {
				return err
			}
			var f expectedFile
			for _, sb := range in.timed {
				totals, err := recount(sb.live)
				if err != nil {
					return err
				}
				f.StreamTotals = append(f.StreamTotals, totals)
			}
			name := fmt.Sprintf("expected.seed%d.json", seed)
			if err := writeJSON(filepath.Join(benchDir(), name), f); err != nil {
				return err
			}
			log("# wrote %s\n", name)
		}
	}
	log("# rebuild before running: the files are embedded\n")
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
