package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ohminer"
	"ohminer/internal/serve"
)

// The stream workload feeds a sliding window in steady state: streamWindow
// seeding batches fill the window (2 400 live hyperedges), the standing
// queries are registered, and every timed batch then adds streamAdds fresh
// hyperedges while the ones added streamWindow epochs earlier expire; every
// second batch also retires streamRetires live hyperedges by name. The
// seeding batches stand in for the single seed batch of a one-shot load: with
// one seed batch the whole graph would expire at once at epoch
// streamWindow+1. The sizes put a batch at about 15 ms.
const (
	streamVertices = 1800
	streamWindow   = 40
	streamAdds     = 60
	streamRetires  = 36
	streamBatches  = 150 // timed
)

// The standing queries: 2-chain, triangle and 3-star over pair hyperedges.
var streamQueries = []string{"0 1; 1 2", "0 1; 1 2; 2 0", "0 1; 0 2; 0 3"}

// streamBatch is one batch of the feed with what the server must answer.
type streamBatch struct {
	body    []byte // JSON of the POST
	batch   ohminer.StreamBatch
	added   int
	retired int
	expired int
	live    [][]uint32 // live hyperedges after the batch; only kept for -update
}

// streamInst replays the feed against a fresh Server and stream directory per
// round: one feeder and one SSE subscriber.
type streamInst struct {
	dir    string
	seed   []streamBatch // untimed: fill the window
	timed  []streamBatch // the ops
	final  [][]uint32    // live hyperedges after the last batch
	want   []uint64      // expected final Total per query, set by the first round
	expect [][]uint64    // expected Total per timed batch and query, for the seeds that have a file

	lag []time.Duration // SSE event after POST response, last traced round
}

// streamEdge draws a pair or a triple of nearby vertices; nearby, so that
// hyperedges overlap and the queries have embeddings.
func streamEdge(rng *rand.Rand) []uint32 {
	v := uint32(rng.Intn(streamVertices - 16))
	if rng.Intn(4) > 0 {
		return []uint32{v, v + 1 + uint32(rng.Intn(6))}
	}
	a := v + 1 + uint32(rng.Intn(4))
	return []uint32{v, a, a + 1 + uint32(rng.Intn(4))}
}

func setupStreamWindow(e *env) (instance, error) {
	root := e.tr.begin("bench.setup", -1, -1)
	defer e.tr.end(root)
	in, err := streamFeed(e, false)
	if err != nil {
		return nil, err
	}
	if !e.tiny {
		in.expect, err = expectedStreamTotals(e.seed)
	}
	return in, err
}

// streamFeed generates the seed's feed. keepLive also records the live
// hyperedges after every timed batch, for the per-batch recount of -update.
func streamFeed(e *env, keepLive bool) (*streamInst, error) {
	rng := rngFor(e.seed, "stream_window")
	window, batches := streamWindow, streamBatches
	if e.tiny {
		window, batches = 4, 10
	}
	in := &streamInst{dir: e.dir}
	// live maps a live hyperedge to the epoch it was added at; order keeps
	// the draws reproducible.
	live := map[string]uint64{}
	edges := map[string][]uint32{}
	var order []string
	for t := 1; t <= window+batches; t++ {
		epoch := uint64(t)
		sb := streamBatch{batch: ohminer.StreamBatch{Seq: epoch}}
		if t > window && (t-window)%2 == 0 {
			// Retire hyperedges that are not about to expire anyway.
			for len(sb.batch.Retire) < streamRetires {
				i := rng.Intn(len(order))
				k := order[i]
				if live[k] <= epoch-uint64(window)+1 {
					continue
				}
				sb.batch.Retire = append(sb.batch.Retire, edges[k])
				delete(live, k)
				order[i] = order[len(order)-1]
				order = order[:len(order)-1]
			}
			sb.retired = len(sb.batch.Retire)
		}
		for len(sb.batch.Add) < streamAdds {
			edge := streamEdge(rng)
			k := fmt.Sprint(edge)
			if _, ok := live[k]; ok {
				continue // re-adding a live hyperedge would only refresh it
			}
			live[k], edges[k] = epoch, edge
			order = append(order, k)
			sb.batch.Add = append(sb.batch.Add, edge)
		}
		sb.added = len(sb.batch.Add)
		// Window expiry, after the draws: a hyperedge re-added in the batch it
		// would expire in is only refreshed, so the adds above avoid those too.
		if t > window {
			kept := order[:0]
			for _, k := range order {
				if live[k] <= epoch-uint64(window) {
					delete(live, k)
					sb.expired++
					continue
				}
				kept = append(kept, k)
			}
			order = kept
		}
		body, err := json.Marshal(map[string]any{"seq": epoch, "add": sb.batch.Add, "retire": sb.batch.Retire})
		if err != nil {
			return nil, err
		}
		sb.body = body
		if keepLive && t > window {
			for _, k := range order {
				sb.live = append(sb.live, edges[k])
			}
		}
		if t <= window {
			in.seed = append(in.seed, sb)
		} else {
			in.timed = append(in.timed, sb)
		}
	}
	for _, k := range order {
		in.final = append(in.final, edges[k])
	}
	return in, nil
}

// recount mines a set of live hyperedges from scratch: the totals the stream
// must have arrived at by adding and subtracting deltas.
func recount(live [][]uint32) ([]uint64, error) {
	h, err := ohminer.BuildHypergraph(streamVertices, live, nil)
	if err != nil {
		return nil, err
	}
	store := ohminer.NewStore(h)
	want := make([]uint64, len(streamQueries))
	for i, lit := range streamQueries {
		p, err := ohminer.ParsePattern(lit)
		if err != nil {
			return nil, err
		}
		res, err := ohminer.Mine(store, p, ohminer.WithWorkers(1), ohminer.WithoutSymmetryBreaking())
		if err != nil {
			return nil, err
		}
		want[i] = res.Ordered
	}
	return want, nil
}

// sseEvents reads Delta events off an open SSE response into a channel until
// the body ends.
func sseEvents(resp *http.Response, ch chan<- ohminer.StreamDelta) {
	defer close(ch)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var d ohminer.StreamDelta
		if json.Unmarshal([]byte(data), &d) != nil {
			return
		}
		ch <- d
	}
}

func (in *streamInst) round(tr *tracer) (roundOut, error) {
	dir, err := os.MkdirTemp(in.dir, "round")
	if err != nil {
		return roundOut{}, err
	}
	defer os.RemoveAll(dir)
	srv := serve.New(ohminer.NewSession(nil), serve.Config{Workers: 1, StreamDir: dir})
	base, stop, err := listenAndServe(srv.Handler())
	if err != nil {
		return roundOut{}, err
	}
	defer stop()
	defer srv.DisconnectStreams()
	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}

	// Fresh state: create the stream, fill the window, register the queries.
	sp := tr.begin("serve.stream_seed", rootSpan, -1)
	spec, err := json.Marshal(serve.StreamSpec{ID: "s", NumVertices: streamVertices, Window: uint64(len(in.seed))})
	if err != nil {
		return roundOut{}, err
	}
	if err := postJSON(client, base+"/streams", spec, nil); err != nil {
		return roundOut{}, err
	}
	for _, sb := range in.seed {
		if err := postJSON(client, base+"/streams/s/batches", sb.body, nil); err != nil {
			return roundOut{}, err
		}
	}
	tr.end(sp)
	sp = tr.begin("serve.stream_register", rootSpan, -1)
	totals := make([]uint64, len(streamQueries))
	var qids []uint64
	for i, lit := range streamQueries {
		body, err := json.Marshal(map[string]string{"pattern": lit})
		if err != nil {
			return roundOut{}, err
		}
		var info ohminer.StreamQueryInfo
		if err := postJSON(client, base+"/streams/s/queries", body, &info); err != nil {
			return roundOut{}, err
		}
		totals[i] = info.Total
		qids = append(qids, info.ID)
	}
	tr.end(sp)

	// Subscribe to the last query's events on a connection of its own.
	watched := len(qids) - 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/streams/s/queries/%d/events", base, qids[watched]), nil)
	if err != nil {
		return roundOut{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return roundOut{}, err
	}
	defer resp.Body.Close()
	events := make(chan ohminer.StreamDelta, 1) // one event per batch, read before the next batch is sent
	go sseEvents(resp, events)

	out := newRoundOut(len(in.timed))
	if tr != nil {
		in.lag = in.lag[:0]
	}
	for i, sb := range in.timed {
		op := tr.begin("serve.stream_batch", rootSpan, i)
		var br serve.StreamBatchResponse
		t0 := startOp()
		err := postJSON(client, base+"/streams/s/batches", sb.body, &br)
		posted := time.Now()
		var ev ohminer.StreamDelta
		got := false
		if err == nil {
			wait := tr.begin("serve.stream_event", op, i)
			select {
			case ev, got = <-events:
			case <-time.After(10 * time.Second):
			}
			tr.end(wait)
		}
		out.stop(i, t0)
		tr.end(op)
		if tr != nil {
			in.lag = append(in.lag, time.Since(posted))
		}
		ok := err == nil && got && br.Applied && br.Epoch == sb.batch.Seq &&
			br.Added == sb.added && br.Retired == sb.retired && br.Expired == sb.expired &&
			len(br.Deltas) == len(qids)
		for q := 0; ok && q < len(qids); q++ {
			d := br.Deltas[q]
			ok = d.QueryID == qids[q] && d.Epoch == sb.batch.Seq && d.Total == totals[q]+d.Added-d.Retired &&
				(in.expect == nil || d.Total == in.expect[i][q])
			totals[q] = d.Total
		}
		if ok {
			ev.ElapsedMS, br.Deltas[watched].ElapsedMS = 0, 0
			ok = ev == br.Deltas[watched]
		}
		if !ok {
			out.failed++
		}
	}
	cancel()
	for range events { // until the reader has seen the body end
	}

	// The deltas telescope to totals; the totals must be what mining the
	// final graph from scratch gives. The recount is the harness's own work,
	// so it is done once, in the discarded first round.
	if in.want == nil {
		if in.want, err = recount(in.final); err != nil {
			return out, err
		}
	}
	for q := range totals {
		if totals[q] != in.want[q] && out.failed == 0 {
			out.failed = 1 // some delta was wrong; which one is not known
		}
	}
	return out, stop()
}

func (in *streamInst) close() error { return nil }

// layers replays the feed once more on a StreamMiner in this process, with
// the same durable sink the server would use, where the parts of a batch can
// be told apart: BatchResult.Elapsed is maintenance plus evaluation, the
// deltas carry the evaluation, and the rest of ApplyBatch is the snapshot.
func (in *streamInst) layers(tr *tracer, m metrics) error {
	m["stream.sse_lag_us"] = us(median(in.lag))
	path := filepath.Join(in.dir, "layers.ohmt")
	cfg := ohminer.StreamConfig{
		NumVertices: streamVertices,
		Window:      uint64(len(in.seed)),
		Snapshot:    &ohminer.StreamFileSink{Path: path},
	}
	cfg.Engine.Workers = 1
	miner, err := ohminer.NewStreamMiner(cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, sb := range in.seed {
		if _, err := miner.ApplyBatch(sb.batch); err != nil {
			return err
		}
	}
	m["stream.seed_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	for _, lit := range streamQueries {
		p, err := ohminer.ParsePattern(lit)
		if err != nil {
			return err
		}
		if _, err := miner.RegisterQuery(p); err != nil {
			return err
		}
	}
	m["stream.register_ms"] = ms(time.Since(t0))
	var apply, total time.Duration
	var evalMS float64
	for _, sb := range in.timed {
		t0 := time.Now()
		res, err := miner.ApplyBatch(sb.batch)
		total += time.Since(t0)
		if err != nil {
			return err
		}
		apply += res.Elapsed
		for _, d := range res.Deltas {
			evalMS += d.ElapsedMS
		}
		m["stream.expired_edges"] += float64(res.Expired)
		if res.Compacted {
			m["stream.compactions"]++
		}
	}
	m["stream.apply_ms"] = ms(apply)
	m["stream.eval_ms"] = evalMS
	m["stream.maintain_ms"] = ms(apply) - evalMS
	m["stream.snapshot_ms"] = ms(total - apply)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["stream.snapshot_kb"] = float64(fi.Size()) / 1024
	t0 = time.Now()
	if _, err := ohminer.LoadStreamMiner(path, cfg); err != nil {
		return err
	}
	m["stream.load_ms"] = ms(time.Since(t0))
	intsetMetrics(miner.Store(), m)
	return nil
}
