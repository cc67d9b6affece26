package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"ohminer/internal/checkpoint"
	"ohminer/internal/dal"
	"ohminer/internal/durable"
	"ohminer/internal/engine"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// WorkerConfig configures one cluster worker process (or in-process worker
// in tests).
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// Name identifies this worker in leases and the cluster status page.
	Name string
	// Store is the worker's local copy of the data hypergraph; its
	// fingerprint must match the coordinator's.
	Store *dal.Store
	// Client performs the protocol round trips (nil = http.DefaultClient).
	// Tests inject a faultinject.PartitionTransport here.
	Client *http.Client
	// Poll seeds the error backoff: the first retry after a transient
	// failure waits about one Poll, then doubles (0 = 500ms). Idle workers do
	// not poll — a lease request parks on the coordinator until there is
	// work — so Poll is otherwise only the floor between two lease requests
	// should a coordinator answer "no work" without parking.
	Poll time.Duration
	// RequestTimeout bounds every protocol round trip (0 = 5s, negative =
	// none). Without it a hung coordinator socket would stall the heartbeat
	// loop past the lease TTL and forfeit the lease; heartbeats additionally
	// cap the timeout at their own period so one stuck renewal can never
	// swallow the next.
	RequestTimeout time.Duration
	// MaxBackoff caps the jittered exponential backoff applied to
	// transient lease/report errors (0 = 30s).
	MaxBackoff time.Duration
	// Engine carries local execution knobs — Workers, Instrument. The plan
	// depends only on the lease's pattern and the store, so every node
	// compiles the identical plan.
	Engine engine.Options
	// OnEmbedding, when set, observes every embedding mined locally (test
	// hook; also where faultinject wraps its triggers).
	OnEmbedding func([]uint32)
	// Logf, when set, receives one line per protocol event (cmd/ohmworker
	// points it at stderr; the smoke test watches for "lease ").
	Logf func(format string, args ...any)
}

// Worker runs the lease/mine/heartbeat/report loop against a coordinator.
type Worker struct {
	cfg     WorkerConfig
	graphFP uint64

	leases    atomic.Uint64 // tasks leased
	completed atomic.Uint64 // tasks reported complete
	partial   atomic.Uint64 // tasks reported with a remainder spill
	lost      atomic.Uint64 // leases abandoned after a heartbeat fence
	fenced    atomic.Uint64 // reports the coordinator refused as stale

	// The last compiled plan and the pattern it was compiled from: the leases
	// of one job name the same pattern, so they parse and compile once.
	// Touched only by the Run goroutine.
	planPattern string
	plan        *oig.Plan
}

// leaseWait is how long an idle worker asks the coordinator to hold a lease
// request open (LeaseRequest.WaitMS); a request timeout shorter than twice
// that halves it, so the park always ends before the deadline does.
const leaseWait = time.Second

// NewWorker validates the config and fingerprints the local store.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, errors.New("cluster: worker needs a coordinator URL")
	}
	if cfg.Name == "" {
		return nil, errors.New("cluster: worker needs a name")
	}
	if cfg.Store == nil {
		return nil, errors.New("cluster: worker needs a store")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Worker{cfg: cfg, graphFP: cfg.Store.Hypergraph().Fingerprint()}, nil
}

// Leases reports how many tasks this worker has leased.
func (w *Worker) Leases() uint64 { return w.leases.Load() }

// Completed reports how many tasks this worker finished and reported.
func (w *Worker) Completed() uint64 { return w.completed.Load() }

// Partial reports how many tasks were reported with an unfinished remainder.
func (w *Worker) Partial() uint64 { return w.partial.Load() }

// Lost reports how many leases were abandoned after a heartbeat fence.
func (w *Worker) Lost() uint64 { return w.lost.Load() }

// Fenced reports how many of this worker's reports the coordinator refused.
func (w *Worker) Fenced() uint64 { return w.fenced.Load() }

// Run leases and mines tasks until ctx is cancelled (graceful shutdown: the
// in-flight task reports its partial count and unfinished frontier before
// Run returns) or a non-retryable protocol error occurs. The context error
// is returned on cancellation so callers can distinguish a clean drain.
func (w *Worker) Run(ctx context.Context) error {
	// One backoff for the whole loop: consecutive transient failures
	// (coordinator restarting or degraded, network blip) stretch the retry
	// interval exponentially with jitter, and any successful round trip
	// resets it. This also covers the startup "coordinator not up yet" case.
	bo := NewBackoff(w.cfg.Poll, w.cfg.MaxBackoff)
	// lease is the task in hand: asked for when there is none, otherwise
	// handed over on the ack of the previous task's report.
	var lease *Lease
	for {
		if lease == nil {
			if err := ctx.Err(); err != nil {
				return err
			}
			asked := time.Now()
			var err error
			if lease, err = w.requestLease(ctx); err != nil {
				var pe *protocolError
				if errors.As(err, &pe) && pe.code == http.StatusConflict {
					// Dataset mismatch never heals by retrying.
					return err
				}
				if ctx.Err() != nil {
					return ctx.Err()
				}
				d := bo.Next()
				w.cfg.Logf("lease error (retry in %v): %v", d.Round(time.Millisecond), err)
				sleepCtx(ctx, d)
				continue
			}
			bo.Reset()
			if lease == nil {
				// The coordinator parked the request for leaseWait before
				// saying so; one that answered at once must not be spun on.
				sleepCtx(ctx, w.cfg.Poll-time.Since(asked))
				continue
			}
		}
		w.leases.Add(1)
		w.cfg.Logf("lease job=%s task=%d epoch=%d", lease.Job, lease.Task, lease.Epoch)
		lease = w.runLease(ctx, lease)
	}
}

// runLease mines one leased task range and reports the outcome. A worker
// that is not draining asks for its next lease on the same round trip and
// returns it (nil when the coordinator had none, or the report did not earn
// one). A lease taken over when ctx is already cancelled is not dropped: the
// engine stops before its first candidate and the whole range goes back as
// the remainder.
func (w *Worker) runLease(ctx context.Context, lease *Lease) *Lease {
	report := Report{
		Worker: w.cfg.Name,
		Job:    lease.Job,
		Task:   lease.Task,
		Epoch:  lease.Epoch,
	}
	res, remainder, err := w.mine(ctx, lease)
	switch {
	case err != nil && errors.Is(err, errLeaseLost):
		// The coordinator already fenced us out; a report would only be
		// refused. Drop the partial result — the task was reassigned and
		// will be counted exactly once by its new holder.
		w.lost.Add(1)
		w.cfg.Logf("lost job=%s task=%d epoch=%d", lease.Job, lease.Task, lease.Epoch)
		return nil
	case err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
		report.Error = err.Error()
	default:
		report.Ordered = res.Ordered
		report.Stats = engine.PackStats(res.Stats)
		report.Remainder = remainder
	}
	report.LeaseNext = ctx.Err() == nil
	next, err := w.sendReport(report)
	if err != nil {
		var pe *protocolError
		if errors.As(err, &pe) && pe.code == http.StatusGone {
			w.fenced.Add(1)
			w.cfg.Logf("fenced job=%s task=%d epoch=%d: %s", lease.Job, lease.Task, lease.Epoch, pe.msg)
			return nil
		}
		// The report never arrived (crash-equivalent): the lease will
		// expire and the task be reassigned; nothing was merged.
		w.cfg.Logf("report error job=%s task=%d: %v", lease.Job, lease.Task, err)
		return nil
	}
	if len(report.Remainder) > 0 {
		w.partial.Add(1)
		w.cfg.Logf("partial job=%s task=%d ordered=%d", lease.Job, lease.Task, report.Ordered)
	} else if report.Error == "" {
		w.completed.Add(1)
		w.cfg.Logf("done job=%s task=%d ordered=%d", lease.Job, lease.Task, report.Ordered)
	} else {
		w.cfg.Logf("failed job=%s task=%d: %s", lease.Job, lease.Task, report.Error)
	}
	return next
}

// planFor returns the plan of lease's job, compiled on the first lease that
// names this pattern and reused by the ones that follow.
func (w *Worker) planFor(lease *Lease, opts engine.Options) (*oig.Plan, error) {
	if w.plan != nil && w.planPattern == lease.Pattern {
		return w.plan, nil
	}
	p, err := pattern.Parse(lease.Pattern)
	if err != nil {
		return nil, fmt.Errorf("lease pattern: %w", err)
	}
	plan, err := engine.CompilePlan(w.cfg.Store, p, opts)
	if err != nil {
		return nil, err
	}
	w.planPattern, w.plan = lease.Pattern, plan
	return plan, nil
}

// errLeaseLost marks a mining run aborted because the coordinator fenced the
// lease (heartbeat got a 410).
var errLeaseLost = errors.New("cluster: lease lost")

// mine runs the leased task range through the local engine, heartbeating in
// the background. It returns the engine result, the encoded unfinished
// remainder (nil when the range completed), and the first error.
func (w *Worker) mine(ctx context.Context, lease *Lease) (engine.Result, []byte, error) {
	if err := engine.CheckVariant(lease.Variant); err != nil {
		return engine.Result{}, nil, err
	}
	opts := w.cfg.Engine
	opts.OnEmbedding = w.cfg.OnEmbedding
	mem := &durable.MemSink[*checkpoint.Snapshot]{}
	opts.Checkpoint = mem
	opts.CheckpointEvery = 0 // snapshot only on a final stop
	plan, err := w.planFor(lease, opts)
	if err != nil {
		return engine.Result{}, nil, err
	}
	snap, err := checkpoint.Decode(bytes.NewReader(lease.Snapshot))
	if err != nil {
		return engine.Result{}, nil, fmt.Errorf("lease snapshot: %w", err)
	}

	taskCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(taskCtx, lease, cancel)
	}()

	res, err := engine.ResumeWithPlanContext(taskCtx, w.cfg.Store, plan, snap, opts)
	cancel(nil)
	<-hbDone
	if cause := context.Cause(taskCtx); errors.Is(cause, errLeaseLost) {
		return res, nil, errLeaseLost
	}
	// A run the drain stopped is Truncated and its frontier — the whole
	// range, if the context was done before it started — is the remainder.
	var remainder []byte
	if res.Truncated {
		remainder = mem.Bytes()
	}
	return res, remainder, err
}

// heartbeatLoop renews the lease until ctx ends; a 410 means the lease was
// reassigned, so it cancels the mining run with errLeaseLost. Transport
// errors are ignored — a partitioned worker keeps mining (it cannot know
// whether the coordinator is down or the path is); the epoch fence makes
// that safe.
func (w *Worker) heartbeatLoop(ctx context.Context, lease *Lease, cancel context.CancelCauseFunc) {
	period := time.Duration(lease.HeartbeatMS) * time.Millisecond
	if period <= 0 {
		period = time.Second
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		// Cap each renewal at its own period on top of the global request
		// timeout: if one heartbeat hangs, the next still fires on schedule
		// instead of queueing behind it until the TTL is forfeit.
		hbCtx, hbCancel := context.WithTimeout(ctx, period)
		err := w.post(hbCtx, "/cluster/heartbeat", HeartbeatRequest{
			Worker: w.cfg.Name, Job: lease.Job, Task: lease.Task, Epoch: lease.Epoch,
		}, nil)
		hbCancel()
		var pe *protocolError
		if errors.As(err, &pe) && pe.code == http.StatusGone {
			cancel(errLeaseLost)
			return
		}
	}
}

// requestLease asks for work, letting the coordinator hold the request open
// until there is some; nil lease (no error) means none turned up in time.
func (w *Worker) requestLease(ctx context.Context) (*Lease, error) {
	wait := leaseWait
	if to := w.cfg.RequestTimeout; to > 0 && to < 2*wait {
		wait = to / 2
	}
	var lease Lease
	ok, err := w.postStatus(ctx, "/cluster/lease",
		LeaseRequest{Worker: w.cfg.Name, GraphFP: w.graphFP, WaitMS: wait.Milliseconds()}, &lease)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return &lease, nil
}

// reportAttempts bounds sendReport's retry loop: the mined result is worth a
// few tries (a restarting or briefly degraded coordinator heals in seconds),
// but not an unbounded wait — past that the lease expires and the task is
// remined, which is correct, just wasted work.
const reportAttempts = 5

// sendReport posts the task outcome, detached from the run context so a
// graceful shutdown still delivers the final partial report after Run's
// context is already cancelled. Transport failures and 503 (coordinator
// degraded or mid-restart) are retried with jittered backoff; any other
// protocol verdict (410 fence, 4xx) is final. The ack's lease, if any, is
// returned.
func (w *Worker) sendReport(rep Report) (*Lease, error) {
	bo := NewBackoff(w.cfg.Poll, 5*time.Second)
	var err error
	for attempt := 0; attempt < reportAttempts; attempt++ {
		if attempt > 0 {
			d := bo.Next()
			w.cfg.Logf("report retry in %v job=%s task=%d: %v", d.Round(time.Millisecond), rep.Job, rep.Task, err)
			time.Sleep(d)
		}
		var ack ReportAck
		err = w.post(context.Background(), "/cluster/report", rep, &ack)
		if err == nil {
			return ack.Lease, nil
		}
		var pe *protocolError
		if errors.As(err, &pe) && pe.code != http.StatusServiceUnavailable {
			return nil, err
		}
	}
	return nil, err
}

// protocolError is a non-2xx coordinator response.
type protocolError struct {
	code int
	msg  string
}

func (e *protocolError) Error() string {
	return fmt.Sprintf("coordinator: %d: %s", e.code, e.msg)
}

func (w *Worker) post(ctx context.Context, path string, body, out any) error {
	_, err := w.postStatus(ctx, path, body, out)
	return err
}

// postStatus posts body as JSON and decodes a 2xx response into out (when
// non-nil). It returns (false, nil) on 204 No Content. Every request gets
// the per-request deadline from RequestTimeout — a hung coordinator socket
// must surface as an error, not an indefinite stall.
func (w *Worker) postStatus(ctx context.Context, path string, body, out any) (bool, error) {
	if w.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, w.cfg.RequestTimeout)
		defer cancel()
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(payload))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer func() {
		// Read what is left (an undecoded ack, the encoder's newline) before
		// closing: a body closed unread costs the connection its keep-alive
		// and the next request a fresh dial.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNoContent {
		return false, nil
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var er errorResponse
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &er) != nil || er.Error == "" {
			er.Error = string(data)
		}
		return false, &protocolError{code: resp.StatusCode, msg: er.Error}
	}
	if out != nil {
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxTaskBody)).Decode(out); err != nil {
			return false, fmt.Errorf("decoding %s response: %w", path, err)
		}
	}
	return true, nil
}

// sleepCtx sleeps for d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
