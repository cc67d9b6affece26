package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"ohminer"
	"ohminer/internal/checkpoint"
	"ohminer/internal/cluster"
	"ohminer/internal/engine"
	"ohminer/internal/serve"
)

const (
	clusterParts   = 8
	clusterWorkers = 2
	clusterPoll    = 2 * time.Millisecond // worker idle poll and client status poll
)

// clusterInst submits the catalogue's jobs one at a time to a fresh durable
// coordinator per round, mounted on a Server, with in-process workers.
type clusterInst struct {
	ds      *dataset
	dir     string
	entries []catalogEntry
	bodies  [][]byte // POST /cluster/jobs bodies, in script order
	order   []int    // script position -> catalogue index

	// Read off the last traced round.
	rtt     *rttRecorder
	status  cluster.ClusterStatus
	lastDir string
}

// rttRecorder is the http.RoundTripper given to the workers: it times every
// protocol round trip by path and counts the lease polls that found no work.
type rttRecorder struct {
	next http.RoundTripper

	mu        sync.Mutex
	byPath    map[string][]time.Duration // guarded by mu
	idlePolls int                        // guarded by mu
}

func (r *rttRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := r.next.RoundTrip(req)
	d := time.Since(t0)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if resp.StatusCode == http.StatusNoContent {
		r.idlePolls++
	} else {
		r.byPath[req.URL.Path] = append(r.byPath[req.URL.Path], d)
	}
	r.mu.Unlock()
	return resp, nil
}

func setupClusterJob(e *env) (instance, error) {
	ds, err := presetDataset(e, "TC")
	if err != nil {
		return nil, err
	}
	cat, err := loadCatalog()
	if err != nil {
		return nil, err
	}
	entries, err := cat.entries("cluster_job", e, 5)
	if err != nil {
		return nil, err
	}
	rng := rngFor(e.seed, "cluster_job")
	in := &clusterInst{ds: ds, dir: e.dir, entries: entries, order: rng.Perm(len(entries))}
	for pos, ci := range in.order {
		lit, err := renameVertices(entries[ci].Pattern, rng)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(map[string]any{"id": fmt.Sprintf("job-%d", pos), "pattern": lit, "parts": clusterParts})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

func (in *clusterInst) round(tr *tracer) (roundOut, error) {
	dir, err := os.MkdirTemp(in.dir, "round")
	if err != nil {
		return roundOut{}, err
	}
	os.RemoveAll(in.lastDir) // "" the first time, which removes nothing
	in.lastDir = dir         // kept until the next round: layers() recovers from it
	coord, err := cluster.New(in.ds.store, cluster.Config{Dir: dir, Parts: clusterParts})
	if err != nil {
		return roundOut{}, err
	}
	defer coord.Close()
	srv := serve.New(ohminer.NewSession(in.ds.store), serve.Config{Workers: 1, Cluster: coord})
	base, stop, err := listenAndServe(srv.Handler())
	if err != nil {
		return roundOut{}, err
	}
	defer stop()

	workerTP := &http.Transport{}
	defer workerTP.CloseIdleConnections()
	rec := &rttRecorder{next: workerTP, byPath: map[string][]time.Duration{}}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	for i := 0; i < clusterWorkers; i++ {
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Coordinator: base,
			Name:        fmt.Sprintf("w%d", i),
			Store:       in.ds.store,
			Client:      &http.Client{Transport: rec},
			Poll:        clusterPoll,
			Engine:      engine.Options{Workers: 1},
		})
		if err != nil {
			return roundOut{}, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) // returns ctx's error at the end of the round
		}()
	}

	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp, Timeout: 30 * time.Second}
	out := newRoundOut(len(in.bodies))
	for i, body := range in.bodies {
		want := in.entries[in.order[i]]
		op := tr.begin("cluster.job", rootSpan, i)
		t0 := startOp()
		sp := tr.begin("cluster.admit", op, i)
		err := postJSON(client, base+"/cluster/jobs", body, nil)
		tr.end(sp)
		var st cluster.JobStatus
		for deadline := t0.wall.Add(30 * time.Second); err == nil && st.State != "done" && st.State != "failed"; {
			if time.Now().After(deadline) {
				err = fmt.Errorf("job-%d: not done after 30s", i)
				break
			}
			time.Sleep(clusterPoll)
			err = getJSON(client, fmt.Sprintf("%s/cluster/jobs/job-%d", base, i), &st)
		}
		out.stop(i, t0)
		tr.end(op)
		if err != nil || st.State != "done" || st.Ordered != want.Ordered || st.Unique != want.Unique {
			out.failed++
		}
	}
	if tr != nil {
		if err := getJSON(client, base+"/cluster", &in.status); err != nil {
			return out, err
		}
		in.rtt = rec
	}
	return out, nil
}

func (in *clusterInst) layers(tr *tracer, m metrics) error {
	in.ds.metrics(m)
	m["cluster.leases"] = float64(in.status.Leases)
	m["cluster.wal_records"] = float64(in.status.WALRecords)
	m["cluster.wal_kb"] = float64(in.status.WALBytes) / 1024
	m["cluster.wal_compactions"] = float64(in.status.WALCompactions)
	m["cluster.idle_polls"] = float64(in.rtt.idlePolls)
	m["cluster.lease_rtt_us"] = us(median(in.rtt.byPath["/cluster/lease"]))
	m["cluster.report_rtt_us"] = us(median(in.rtt.byPath["/cluster/report"]))
	m["cluster.heartbeats"] = float64(len(in.rtt.byPath["/cluster/heartbeat"]))
	m["cluster.admit_ms"] = ms(median(tr.durations("cluster.admit")))

	// Restart recovery: a new coordinator on the finished round's directory.
	t0 := time.Now()
	coord, err := cluster.New(in.ds.store, cluster.Config{Dir: in.lastDir, Parts: clusterParts})
	m["cluster.recover_ms"] = ms(time.Since(t0))
	if err != nil {
		return err
	}
	if err := coord.Close(); err != nil {
		return err
	}

	// What a job costs over mining its pattern in this process.
	var jobs, mine time.Duration
	for _, d := range tr.durations("cluster.job") {
		jobs += d
	}
	var st ohminer.Stats
	var ordered uint64
	for _, ce := range in.entries {
		p, err := ohminer.ParsePattern(ce.Pattern)
		if err != nil {
			return err
		}
		res, err := ohminer.Mine(in.ds.store, p, ohminer.WithWorkers(1))
		if err != nil {
			return err
		}
		mine += res.Elapsed
		st.Add(res.Stats)
		ordered += res.Ordered
	}
	m["cluster.overhead_ratio"] = float64(jobs) / float64(mine)
	engineMetrics(st, ordered, mine, m)
	return in.leaseMetrics(m)
}

// leaseMetrics asks a coordinator without workers for the leases of a few
// jobs, the way a worker would, and measures the task payload: its size and
// the time to decode the checkpoint snapshot inside.
func (in *clusterInst) leaseMetrics(m metrics) error {
	coord, err := cluster.New(in.ds.store, cluster.Config{Parts: clusterParts})
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	coord.Register(mux)
	base, stop, err := listenAndServe(mux)
	if err != nil {
		return err
	}
	defer stop()
	ask, err := json.Marshal(cluster.LeaseRequest{Worker: "bench", GraphFP: in.ds.h.Fingerprint()})
	if err != nil {
		return err
	}
	var sizes int
	var decode []time.Duration
	for i, ce := range in.entries {
		if i == 10 {
			break
		}
		if _, err := coord.StartJob("", cluster.JobSpec{Pattern: ce.Pattern, Parts: clusterParts}); err != nil {
			return err
		}
		for {
			var lease cluster.Lease
			resp, err := http.Post(base+"/cluster/lease", "application/json", bytes.NewReader(ask))
			if err != nil {
				return err
			}
			if resp.StatusCode == http.StatusNoContent {
				resp.Body.Close()
				break
			}
			err = json.NewDecoder(resp.Body).Decode(&lease)
			resp.Body.Close()
			if err != nil {
				return err
			}
			sizes += len(lease.Snapshot)
			t0 := time.Now()
			if _, err := checkpoint.Decode(bytes.NewReader(lease.Snapshot)); err != nil {
				return err
			}
			decode = append(decode, time.Since(t0))
		}
	}
	if len(decode) > 0 {
		m["checkpoint.lease_kb"] = float64(sizes) / float64(len(decode)) / 1024
		m["checkpoint.decode_us"] = us(median(decode))
	}
	return stop()
}

func (in *clusterInst) close() error { return nil }
