package exp

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"ohminer/internal/engine"
	"ohminer/internal/pattern"
	"ohminer/internal/stream"
)

// The "stream" experiment is the incremental-maintenance ablation for the
// streaming subsystem: the same scripted batch feed (adds + retires over a
// seeded graph) runs on two stream miners, one maintaining its hypergraph
// and DAL incrementally (the default) and one rebuilding both from scratch
// every batch (Config.Rebuild, the differential baseline). Standing-query
// deltas and cumulative totals must agree batch-for-batch — the measured
// quantity is apply latency, where incremental maintenance should win by
// roughly the graph-size/batch-size ratio.
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

	type variant struct {
		name    string
		rebuild bool
		apply   time.Duration
		finals  []stream.QueryInfo
		deltas  [][]stream.Delta // [batch][query]
	}
	variants := []*variant{{name: "rebuild", rebuild: true}, {name: "incremental"}}
	for _, v := range variants {
		m, err := stream.NewMiner(stream.Config{
			NumVertices: nv,
			Rebuild:     v.rebuild,
			Engine:      engine.Options{Workers: workers},
		})
		if err != nil {
			return nil, fmt.Errorf("stream: %s: %w", v.name, err)
		}
		// Seed the graph, then register the standing queries so every
		// measured batch evaluates them.
		if _, err := m.ApplyBatch(feed[0]); err != nil {
			return nil, fmt.Errorf("stream: %s: seed: %w", v.name, err)
		}
		for _, lit := range patterns {
			p, err := pattern.Parse(lit)
			if err != nil {
				return nil, fmt.Errorf("stream: pattern %q: %w", lit, err)
			}
			if _, err := m.RegisterQuery(p); err != nil {
				return nil, fmt.Errorf("stream: %s: register %q: %w", v.name, lit, err)
			}
		}
		start := time.Now()
		for _, b := range feed[1:] {
			res, err := m.ApplyBatch(b)
			if err != nil {
				return nil, fmt.Errorf("stream: %s: batch %d: %w", v.name, b.Seq, err)
			}
			ds := append([]stream.Delta(nil), res.Deltas...)
			for i := range ds {
				ds[i].ElapsedMS = 0
			}
			v.deltas = append(v.deltas, ds)
		}
		v.apply = time.Since(start)
		v.finals = m.Queries()
		progressf("    stream/%-11s %d batches in %v\n", v.name, batches, v.apply.Round(time.Millisecond))
	}

	// Differential gate: both variants must produce identical deltas for
	// every (batch, query) cell — incremental maintenance is only a win if
	// it is also exact.
	rb, inc := variants[0], variants[1]
	for bi := range rb.deltas {
		for qi := range rb.deltas[bi] {
			if rb.deltas[bi][qi] != inc.deltas[bi][qi] {
				return nil, fmt.Errorf("stream: batch %d query %d: rebuild %+v != incremental %+v",
					bi, qi, rb.deltas[bi][qi], inc.deltas[bi][qi])
			}
		}
	}

	t := &Table{
		Title:  "Streaming ablation: incremental derived-state maintenance vs per-batch rebuild",
		Header: []string{"cell", "rebuild", "incremental", "speedup"},
		Notes: []string{
			fmt.Sprintf("feed: %d seed edges, then %d batches of ~%d adds + %d retires over %d vertices", initial, batches, adds, retires, nv),
			"apply is the wall-clock total over all measured batches (derived-state maintenance + standing-query deltas)",
			"every per-batch delta and final total is verified identical across variants before timing is reported",
			"rebuild reconstructs the hypergraph and DAL from live edges each batch; incremental extends them in place",
		},
	}
	t.AddRow(fmt.Sprintf("apply Σ (B=%d)", batches), ms(rb.apply), ms(inc.apply), speedup(rb.apply, inc.apply))
	for qi, q := range inc.finals {
		if rb.finals[qi].Total != q.Total || rb.finals[qi].Unique != q.Unique {
			return nil, fmt.Errorf("stream: query %q final totals diverge: rebuild %d/%d, incremental %d/%d",
				q.Pattern, rb.finals[qi].Total, rb.finals[qi].Unique, q.Total, q.Unique)
		}
		t.AddRow("total "+q.Pattern, fmt.Sprintf("%d", rb.finals[qi].Total), fmt.Sprintf("%d", q.Total), "-")
	}
	for _, v := range variants {
		for _, q := range v.finals {
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
// evaluation follow the batch's neighbourhoods; the maintenance column still
// carries the O(E) CSR copies of hypergraph.Extend and dal.BuildDelta. The
// final totals are checked against a from-scratch mine.
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
			"eval = Σ Delta.ElapsedMS of the standing queries; maintain = BatchResult.Elapsed − eval (hypergraph.Extend + dal.BuildDelta, still O(E))",
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
