package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"ohminer/internal/baseline"
	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/pattern"
)

// newRand builds a deterministic RNG for workload sampling.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// measurement is one averaged mining result over a pattern set.
type measurement struct {
	AvgTime    time.Duration
	PerPattern []time.Duration // completed patterns only
	Ordered    uint64          // total across completed patterns
	Runs       int             // completed patterns
	Truncated  bool            // cell budget exhausted before all patterns ran
	GenFrac    float64         // instrumented runs only
	ValFrac    float64
	Stats      baseline.Stats
}

// system is one measured column: the production engine (internal/engine) or
// a configuration of internal/baseline. In every paper table and figure the
// "OHMiner" column is the production engine and the systems it is compared
// with or ablated into are baselines; mineSet's count check therefore holds
// production and baseline to equal counts cell by cell.
type system struct {
	Name string
	// Scheduler labels recorded cells: "stealing" or "first-level".
	Scheduler string
	mine      func(ctx context.Context, store *dal.Store, p *pattern.Pattern, workers int, instrument bool) (cellRun, error)
}

// cellRun is what a cell keeps of one run of either engine.
type cellRun struct {
	Elapsed                      time.Duration
	Ordered                      uint64
	Truncated                    bool
	Stats                        baseline.Stats // instrumented runs
	Steals, Publishes, IdleSpins uint64         // production only
}

// production is the production engine under the given options (Workers
// and Instrument are the cell's, and so is the context that bounds it).
func production(name string, o engine.Options) system {
	return system{name, "stealing", func(ctx context.Context, store *dal.Store, p *pattern.Pattern, workers int, instrument bool) (cellRun, error) {
		o.Workers, o.Instrument = workers, instrument
		res, err := engine.MineContext(ctx, store, p, o)
		st := res.Stats
		return cellRun{
			Elapsed: res.Elapsed, Ordered: res.Ordered, Truncated: res.Truncated,
			Stats:  baseline.Stats{Candidates: st.Candidates, Embeddings: st.Embeddings, GenTime: st.GenTime, ValTime: st.ValTime},
			Steals: st.Steals, Publishes: st.Publishes, IdleSpins: st.IdleSpins,
		}, err
	}}
}

// baselineSys is internal/baseline under the given configuration (Workers
// and Instrument are the cell's, and so is the context that bounds it).
func baselineSys(name string, o baseline.Options) system {
	return system{name, "first-level", func(ctx context.Context, store *dal.Store, p *pattern.Pattern, workers int, instrument bool) (cellRun, error) {
		o.Workers, o.Instrument = workers, instrument
		res, err := baseline.Mine(ctx, store, p, o)
		return cellRun{Elapsed: res.Elapsed, Ordered: res.Ordered, Truncated: res.Truncated, Stats: res.Stats}, err
	}}
}

// The two systems of the paper's headline comparison.
var (
	ohminerSys = production("OHMiner", engine.Options{})
	hgmatchSys = baselineSys("HGMatch", baseline.Options{Gen: baseline.GenHGMatch, Val: baseline.ValProfiles})
)

// Progress, when non-nil, receives one line per measured cell so that long
// full-grid runs are observable (cmd/ohmbench points it at stderr).
var Progress io.Writer

func progressf(format string, args ...any) {
	if Progress != nil {
		fmt.Fprintf(Progress, format, args...)
	}
}

// mineSet mines every pattern with the given system and returns the
// averaged wall time. One context.WithTimeout bounds the whole cell by
// opts.CellBudget. Counts are cross-checked against check (when non-nil): a
// mismatch is a correctness bug, so it fails loudly.
func mineSet(store *dal.Store, pats []*pattern.Pattern, sys system, opts RunOpts, instrument bool, check []uint64) (measurement, []uint64, error) {
	start := time.Now()
	var m measurement
	defer func() {
		trunc := ""
		if m.Truncated {
			trunc = fmt.Sprintf(" (budget hit after %d)", m.Runs)
		}
		progressf("    %-8s %d patterns in %v%s\n", sys.Name, len(pats), time.Since(start).Round(time.Millisecond), trunc)
	}()
	ctx := context.Background()
	if opts.CellBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.CellBudget)
		defer cancel()
	}
	counts := make([]uint64, 0, len(pats))
	for i, p := range pats {
		if ctx.Err() != nil {
			m.Truncated = true
			break
		}
		// A run the budget ends returns context.DeadlineExceeded; it is
		// Truncated unless it had explored everything.
		res, err := sys.mine(ctx, store, p, opts.Workers, instrument)
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return m, nil, fmt.Errorf("%s on pattern %d: %w", sys.Name, i, err)
		}
		if res.Truncated {
			// The run hit the budget mid-pattern; its time and count are
			// incomparable, so drop it and stop.
			m.Truncated = true
			break
		}
		m.PerPattern = append(m.PerPattern, res.Elapsed)
		m.AvgTime += res.Elapsed
		m.Ordered += res.Ordered
		m.Runs++
		m.Stats.GenTime += res.Stats.GenTime
		m.Stats.ValTime += res.Stats.ValTime
		m.Stats.NMFetches += res.Stats.NMFetches
		m.Stats.RedundantNMFetches += res.Stats.RedundantNMFetches
		m.Stats.ProfileVertices += res.Stats.ProfileVertices
		m.Stats.RedundantProfileVertices += res.Stats.RedundantProfileVertices
		opts.Recorder.Record(CellRecord{
			Variant:   sys.Name,
			Pattern:   fmt.Sprintf("#%d %s", i, p),
			Workers:   opts.Workers,
			Scheduler: sys.Scheduler,
			ElapsedMs: float64(res.Elapsed) / float64(time.Millisecond),
			Ordered:   res.Ordered,
			Steals:    res.Steals,
			Publishes: res.Publishes,
			IdleSpins: res.IdleSpins,
		})
		counts = append(counts, res.Ordered)
		if check != nil && i < len(check) && check[i] != res.Ordered {
			return m, nil, fmt.Errorf("%s disagrees on pattern %d: %d vs %d embeddings",
				sys.Name, i, res.Ordered, check[i])
		}
	}
	if m.Runs > 0 {
		m.AvgTime /= time.Duration(m.Runs)
	}
	if tot := m.Stats.GenTime + m.Stats.ValTime; tot > 0 {
		m.GenFrac = float64(m.Stats.GenTime) / float64(tot)
		m.ValFrac = float64(m.Stats.ValTime) / float64(tot)
	}
	return m, counts, nil
}

// versusCells are the cells every "system vs baseline" row is made of.
type versusCells struct{ Note, Fast, Base, Speedup, Embeddings string }

// versus mines pats with fast and then with base — base's counts checked
// against fast's — and renders the comparison: averages over the patterns
// both completed (Note says how many when the budget cut a side short), or a
// lower bound on the speedup when base completed none.
func versus(store *dal.Store, pats []*pattern.Pattern, fast, base system, opts RunOpts) (versusCells, error) {
	f, counts, err := mineSet(store, pats, fast, opts, false, nil)
	if err != nil {
		return versusCells{}, err
	}
	b, _, err := mineSet(store, pats, base, opts, false, counts)
	if err != nil {
		return versusCells{}, err
	}
	fastAvg, baseAvg, common, truncated := align(f, b)
	if common == 0 {
		if lb, ok := lowerBound(f, opts.CellBudget); ok {
			return versusCells{" [1/lb]", ms(f.PerPattern[0]), ">" + ms(opts.CellBudget), lb, "-"}, nil
		}
		return versusCells{"", "-", "-", "timeout", "-"}, nil
	}
	return versusCells{cellNote(common, len(pats), truncated), ms(fastAvg), ms(baseAvg),
		speedup(baseAvg, fastAvg), fmt.Sprintf("%d", f.Ordered)}, nil
}

// speedup formats a ratio of two durations.
func speedup(base, fast time.Duration) string {
	if fast <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(fast))
}

// align compares two measurements of the same pattern set fairly when one
// (or both) hit the cell budget: averages are recomputed over the common
// prefix of completed patterns. It returns the aligned averages, the common
// pattern count, and whether truncation occurred.
func align(a, b measurement) (avgA, avgB time.Duration, common int, truncated bool) {
	common = len(a.PerPattern)
	if len(b.PerPattern) < common {
		common = len(b.PerPattern)
	}
	truncated = a.Truncated || b.Truncated
	if common == 0 {
		return 0, 0, 0, truncated
	}
	for i := 0; i < common; i++ {
		avgA += a.PerPattern[i]
		avgB += b.PerPattern[i]
	}
	avgA /= time.Duration(common)
	avgB /= time.Duration(common)
	return avgA, avgB, common, truncated
}

// lowerBound renders a conservative speedup bound when the baseline could
// not finish even one pattern within the budget: the baseline spent at
// least the whole budget on the first pattern the fast system finished in
// PerPattern[0].
func lowerBound(fast measurement, budget time.Duration) (string, bool) {
	if budget <= 0 || len(fast.PerPattern) == 0 {
		return "", false
	}
	return fmt.Sprintf(">=%.0fx", float64(budget)/float64(fast.PerPattern[0])), true
}

// cellNote annotates a row measured on fewer patterns than sampled.
func cellNote(common, total int, truncated bool) string {
	if !truncated || common == total {
		return ""
	}
	return fmt.Sprintf(" [%d/%d]", common, total)
}

// ms formats a duration in milliseconds with sensible precision.
func ms(d time.Duration) string {
	v := float64(d) / float64(time.Millisecond)
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.1fs", v/1000)
	case v >= 10:
		return fmt.Sprintf("%.0fms", v)
	default:
		return fmt.Sprintf("%.2fms", v)
	}
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }

// settingsFor returns the Table 4 pattern settings to use, trimmed in quick
// mode.
func settingsFor(opts RunOpts, quickNames ...string) []pattern.Setting {
	all := pattern.Settings()
	if !opts.Quick {
		return all
	}
	if len(quickNames) == 0 {
		quickNames = []string{"P2", "P3"}
	}
	var out []pattern.Setting
	for _, s := range all {
		for _, n := range quickNames {
			if s.Name == n {
				s.Count = 2
				out = append(out, s)
			}
		}
	}
	return out
}

// datasetsFor trims the dataset list in quick mode.
func datasetsFor(opts RunOpts, full []string, quick []string) []string {
	if opts.Quick {
		return quick
	}
	return full
}

// samplePatterns draws the pattern set for one dataset/setting pair with a
// deterministic per-pair seed.
func samplePatterns(store *dal.Store, set pattern.Setting, opts RunOpts, salt int64) ([]*pattern.Pattern, error) {
	return pattern.SampleSet(store.Hypergraph(), set, opts.Seed*1000003+salt)
}

// saltFor derives a stable salt from dataset tag and setting name.
func saltFor(tag, setting string) int64 {
	var s int64
	for _, r := range tag + "/" + setting {
		s = s*131 + int64(r)
	}
	return s
}
