package exp

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/hypergraph"
	"ohminer/internal/pattern"
	"ohminer/internal/stream"
)

// The "stream" experiment is the incremental-maintenance ablation for the
// streaming subsystem: a scripted batch feed (adds + retires over a seeded
// graph) runs on a stream miner, which maintains its hypergraph and DAL
// incrementally and counts each batch's delta, and beside it on the rebuild
// baseline, which after every batch builds both from the live edges and
// mines every query from scratch. The cumulative totals must agree
// batch-for-batch — the measured quantity is the time per batch, where the
// incremental path should win by roughly the graph-size/batch-size ratio.
//
// A second table is ROADMAP item 7's flat line: the time to turn one
// fixed-size batch into its deltas against windows of growing |E| at equal
// local density (streamDeltaSweep).

func init() {
	register(Experiment{
		ID:    "stream",
		Title: "Streaming ablation: incremental derived-state maintenance vs per-batch rebuild",
		Run:   runStream,
	})
}

func runStream(c *Context, opts RunOpts) ([]*Table, error) {
	nv, initial, batches, adds, retires := 1200, 20000, 10, 200, 120
	if opts.Quick {
		nv, initial, batches, adds, retires = 600, 4000, 6, 120, 80
	}
	patterns := []string{"0 1; 1 2", "0 1; 1 2; 2 0"}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// The feed is scripted up front so both variants consume identical
	// batches: a seeding batch, then `batches` batches of random pair/triple
	// adds and retires drawn from the edges known live at that point.
	rng := rand.New(rand.NewSource(opts.Seed + 41))
	randEdge := func() []uint32 {
		v := uint32(rng.Intn(nv - 2))
		if rng.Intn(2) == 0 {
			return []uint32{v, v + 1 + uint32(rng.Intn(2))}
		}
		return []uint32{v, v + 1, v + 2}
	}
	// live tracks the distinct edges known live so retires always name a
	// currently-live edge exactly once; duplicate random adds are dropped
	// (the miner would treat them as refreshes, desynchronizing this
	// bookkeeping from its live set).
	live := map[string][]uint32{}
	liveKeys := []string{}
	addFresh := func(batch *stream.Batch, n int) {
		for i := 0; i < n; i++ {
			e := randEdge()
			k := fmt.Sprint(e)
			if _, ok := live[k]; ok {
				continue
			}
			batch.Add = append(batch.Add, e)
			live[k] = e
			liveKeys = append(liveKeys, k)
		}
	}
	feed := make([]stream.Batch, 0, batches+1)
	seed := stream.Batch{Seq: 1}
	addFresh(&seed, initial)
	feed = append(feed, seed)
	for b := 0; b < batches; b++ {
		batch := stream.Batch{Seq: uint64(b + 2)}
		// Retires are drawn from edges live before this batch, so they are
		// valid regardless of apply-order semantics; adds then never
		// collide with a live or just-retired key.
		for i := 0; i < retires && len(liveKeys) > 0; i++ {
			j := rng.Intn(len(liveKeys))
			k := liveKeys[j]
			batch.Retire = append(batch.Retire, live[k])
			delete(live, k)
			liveKeys[j] = liveKeys[len(liveKeys)-1]
			liveKeys = liveKeys[:len(liveKeys)-1]
		}
		addFresh(&batch, adds)
		feed = append(feed, batch)
	}

	m, err := stream.NewMiner(stream.Config{NumVertices: nv, Engine: engine.Options{Workers: workers}})
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	// Seed the graph, then register the standing queries so every measured
	// batch evaluates them.
	if _, err := m.ApplyBatch(feed[0]); err != nil {
		return nil, fmt.Errorf("stream: seed: %w", err)
	}
	pats := make([]*pattern.Pattern, len(patterns))
	for i, lit := range patterns {
		if pats[i], err = pattern.Parse(lit); err != nil {
			return nil, fmt.Errorf("stream: pattern %q: %w", lit, err)
		}
		if _, err := m.RegisterQuery(pats[i]); err != nil {
			return nil, fmt.Errorf("stream: register %q: %w", lit, err)
		}
	}
	var incremental, rebuild time.Duration
	for _, b := range feed[1:] {
		start := time.Now()
		res, err := m.ApplyBatch(b)
		if err != nil {
			return nil, fmt.Errorf("stream: batch %d: %w", b.Seq, err)
		}
		incremental += time.Since(start)

		// The rebuild baseline and differential gate in one: incremental
		// maintenance is only a win if it is also exact.
		live := m.LiveEdgeSets()
		start = time.Now()
		h, err := hypergraph.Build(nv, live, nil)
		if err != nil {
			return nil, fmt.Errorf("stream: rebuild at batch %d: %w", b.Seq, err)
		}
		store := dal.Build(h)
		for qi, p := range pats {
			full, err := engine.Mine(store, p, engine.Options{Workers: workers})
			if err != nil {
				return nil, fmt.Errorf("stream: rebuild at batch %d: %w", b.Seq, err)
			}
			if d := res.Deltas[qi]; d.Total != full.Ordered {
				return nil, fmt.Errorf("stream: batch %d query %q: incremental total %d (%+v) != rebuild %d",
					b.Seq, patterns[qi], d.Total, d, full.Ordered)
			}
		}
		rebuild += time.Since(start)
	}
	finals := m.Queries()
	progressf("    stream: %d batches, incremental %v, rebuild %v\n", batches, incremental.Round(time.Millisecond), rebuild.Round(time.Millisecond))

	t := &Table{
		Title:  "Streaming ablation: incremental derived-state maintenance vs per-batch rebuild",
		Header: []string{"cell", "rebuild", "incremental", "speedup"},
		Notes: []string{
			fmt.Sprintf("feed: %d seed edges, then %d batches of ~%d adds + %d retires over %d vertices", initial, batches, adds, retires, nv),
			"incremental is the wall-clock total of ApplyBatch over all measured batches (derived-state maintenance + standing-query deltas)",
			"rebuild reconstructs the hypergraph and DAL from the live edges and mines every query from scratch after each batch",
			"every batch's cumulative totals are verified identical between the two before timing is reported",
		},
	}
	t.AddRow(fmt.Sprintf("apply Σ (B=%d)", batches), ms(rebuild), ms(incremental), speedup(rebuild, incremental))
	for _, q := range finals {
		t.AddRow("total "+q.Pattern, fmt.Sprintf("%d", q.Total), fmt.Sprintf("%d", q.Total), "-")
	}
	for _, v := range []struct {
		name  string
		apply time.Duration
	}{{"rebuild", rebuild}, {"incremental", incremental}} {
		for _, q := range finals {
			opts.Recorder.Record(CellRecord{
				Exp:       "stream",
				Variant:   v.name,
				Dataset:   fmt.Sprintf("synthetic-stream nv=%d e0=%d", nv, initial),
				Pattern:   q.Pattern,
				Workers:   workers,
				MaxProcs:  runtime.GOMAXPROCS(0),
				ElapsedMs: float64(v.apply) / float64(time.Millisecond),
				Ordered:   q.Total,
				Unique:    q.Unique,
			})
		}
	}
	sweep, err := streamDeltaSweep(opts, workers)
	if err != nil {
		return nil, err
	}
	return []*Table{t, sweep}, nil
}

// streamDeltaSweep measures batch→delta evaluation time against |E|: a
// window of |E| pair/triple hyperedges over 0.75·|E| vertices (the local
// density of the stream_window benchmark), three standing queries, then
// batches that each add 60 fresh hyperedges and retire 60 live ones, so |E|
// stays put. Anchor-first plans seeded with the changed hyperedges make the
// evaluation follow the batch's neighbourhoods, and hypergraph.Extend and
// dal.BuildDelta rewrite only the segments and vertex lists the batch
// touches, so the maintenance column follows it too, but for one copy of
// the per-hyperedge and per-vertex bounds tables. The final totals are
// checked against a from-scratch mine.
func streamDeltaSweep(opts RunOpts, workers int) (*Table, error) {
	const batchEdges = 60
	sizes, batches := []int{2400, 9600, 38400}, 30
	if opts.Quick {
		sizes, batches = []int{600, 2400, 9600}, 10
	}
	queries := []string{"0 1; 1 2", "0 1; 1 2; 2 0", "0 1; 0 2; 0 3"}
	t := &Table{
		Title:  "Stream delta evaluation vs |E| at a fixed 60-edge batch",
		Header: []string{"|E|", "eval/batch", "vs smallest", "maintain/batch", "candidates/batch"},
		Notes: []string{
			fmt.Sprintf("%d batches of %d adds + %d retires per size; medians over the batches; queries: 2-chain, triangle, 3-star over pairs", batches, batchEdges, batchEdges),
			"eval = Σ Delta.ElapsedMS of the standing queries; maintain = BatchResult.Elapsed − eval (hypergraph.Extend + dal.BuildDelta: the touched segments and vertex lists, plus a copy of the bounds tables)",
			"candidates = Σ engine Stats.Candidates of the batch's anchored runs (instrumented)",
		},
	}
	var baseEval time.Duration
	for _, size := range sizes {
		nv := size * 3 / 4
		rng := rand.New(rand.NewSource(opts.Seed + int64(size)))
		live := map[string]bool{}
		var order [][]uint32
		fresh := func(n int) [][]uint32 {
			var out [][]uint32
			for len(out) < n {
				v := uint32(rng.Intn(nv - 16))
				e := []uint32{v, v + 1 + uint32(rng.Intn(6))}
				if rng.Intn(4) == 0 {
					e = append(e, e[1]+1+uint32(rng.Intn(4)))
				}
				if k := fmt.Sprint(e); !live[k] {
					live[k] = true
					out = append(out, e)
				}
			}
			order = append(order, out...)
			return out
		}
		m, err := stream.NewMiner(stream.Config{
			NumVertices: nv,
			Engine:      engine.Options{Workers: workers, Instrument: true},
		})
		if err != nil {
			return nil, fmt.Errorf("stream sweep |E|=%d: %w", size, err)
		}
		if _, err := m.ApplyBatch(stream.Batch{Add: fresh(size)}); err != nil {
			return nil, fmt.Errorf("stream sweep |E|=%d: seed: %w", size, err)
		}
		pats := make([]*pattern.Pattern, len(queries))
		for i, lit := range queries {
			if pats[i], err = pattern.Parse(lit); err != nil {
				return nil, fmt.Errorf("stream sweep: pattern %q: %w", lit, err)
			}
			if _, err := m.RegisterQuery(pats[i]); err != nil {
				return nil, fmt.Errorf("stream sweep |E|=%d: register %q: %w", size, lit, err)
			}
		}
		var evals, maintains []time.Duration
		var cands []uint64
		for b := 0; b < batches; b++ {
			batch := stream.Batch{}
			for i := 0; i < batchEdges; i++ {
				j := rng.Intn(len(order))
				batch.Retire = append(batch.Retire, order[j])
				delete(live, fmt.Sprint(order[j]))
				order[j] = order[len(order)-1]
				order = order[:len(order)-1]
			}
			batch.Add = fresh(batchEdges)
			res, err := m.ApplyBatch(batch)
			if err != nil {
				return nil, fmt.Errorf("stream sweep |E|=%d: batch %d: %w", size, b, err)
			}
			var eval time.Duration
			for _, d := range res.Deltas {
				eval += time.Duration(d.ElapsedMS * float64(time.Millisecond))
			}
			evals = append(evals, eval)
			maintains = append(maintains, res.Elapsed-eval)
			cands = append(cands, res.Stats.Candidates)
		}
		finals := m.Queries()
		for i, p := range pats {
			tc, err := m.TotalCount(p)
			if err != nil {
				return nil, fmt.Errorf("stream sweep |E|=%d: recount %q: %w", size, queries[i], err)
			}
			if tc.Ordered != finals[i].Total {
				return nil, fmt.Errorf("stream sweep |E|=%d: %q streamed total %d, from scratch %d", size, queries[i], finals[i].Total, tc.Ordered)
			}
		}
		slices.Sort(evals)
		slices.Sort(maintains)
		slices.Sort(cands)
		eval, maintain := evals[len(evals)/2], maintains[len(maintains)/2]
		if baseEval == 0 {
			baseEval = eval
		}
		t.AddRow(fmt.Sprintf("%d", size), ms(eval), fmt.Sprintf("%.2fx", float64(eval)/float64(baseEval)),
			ms(maintain), fmt.Sprintf("%d", cands[len(cands)/2]))
		progressf("    stream/delta |E|=%-6d eval %v maintain %v per batch\n", size, eval.Round(time.Microsecond), maintain.Round(time.Microsecond))
		for _, q := range finals {
			opts.Recorder.Record(CellRecord{
				Exp:       "stream",
				Variant:   "delta-eval",
				Dataset:   fmt.Sprintf("synthetic-window |E|=%d batch=%d", size, batchEdges),
				Pattern:   q.Pattern,
				Workers:   workers,
				MaxProcs:  runtime.GOMAXPROCS(0),
				ElapsedMs: float64(eval) / float64(time.Millisecond),
				Ordered:   q.Total,
				Unique:    q.Unique,
			})
		}
	}
	return t, nil
}
