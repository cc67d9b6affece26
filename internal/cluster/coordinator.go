// Package cluster implements the distributed mining layer: a coordinator
// that partitions the candidate space of the first pattern hyperedge into
// task leases and hands them to worker nodes over HTTP/JSON, plus the worker
// loop (cmd/ohmworker) that mines leased ranges through the local engine and
// reports partial counters.
//
// The design follows the observation (HGMatch; Sec. 4.4 of the paper) that
// hypergraph matching parallelizes over independent per-edge expansion
// tasks: the engine's checkpoint frontier is already exactly that task
// shape, so a depth-0 frontier task — a first-hyperedge candidate range —
// becomes the wire-level work unit, encoded as an OHMC snapshot
// (internal/checkpoint). Workers mine a lease with the unmodified
// single-node engine and report per-task counters; the coordinator merges
// them exactly once.
//
// Fault tolerance is lease-based. Every grant carries an epoch (incremented
// per assignment) and a TTL renewed by heartbeats. A worker that stops
// heartbeating — crashed, partitioned, or stalled — forfeits the lease: the
// task returns to the queue and the next grant bumps the epoch, fencing the
// presumed-dead worker out. If that worker was merely slow (a zombie), its
// late report carries the old epoch and is discarded, so the task's counts
// are merged exactly once no matter how the failure interleaves. A worker
// shutting down gracefully reports its partial count plus the unfinished
// frontier (the engine's final-stop snapshot), which the coordinator
// re-enqueues as a fresh task — nothing is lost, nothing double-counted:
// the invariant is the checkpoint/resume one, inherited wholesale.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"ohminer/internal/checkpoint"
	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// Config bounds the coordinator's lease protocol.
type Config struct {
	// LeaseTTL is how long a lease survives without a heartbeat before the
	// task is reclaimed and reassigned (0 = 10s); workers are told to renew
	// every LeaseTTL/3.
	LeaseTTL time.Duration
	// Parts is the default task partition count per job (0 = 16). More
	// parts than workers keeps slow nodes from stalling the tail.
	Parts int
	// MaxTaskFailures fails the whole job once a single task has been
	// reported failed this many times (0 = 3).
	MaxTaskFailures int

	// Dir, when non-empty, makes the coordinator durable: every state
	// transition is written ahead to Dir/wal.log and compacted into
	// Dir/state.ohms, and New replays both so a restarted coordinator
	// resumes every running job (see wal.go). Empty keeps the pre-WAL
	// in-memory coordinator.
	Dir string
	// FlushEvery is the background WAL fsync/probe period (0 = 250ms).
	FlushEvery time.Duration
	// WALWrap, when set, wraps the WAL's file writer — the fault-injection
	// seam (internal/faultinject) used by the chaos suite to tear, fill, or
	// kill the log mid-record. The wrapper must not call back into the
	// coordinator: it runs under the coordinator's locks.
	WALWrap func(w io.Writer) io.Writer

	// now is the test clock (nil = time.Now); lease-expiry tests advance it
	// instead of sleeping.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.Parts <= 0 {
		c.Parts = 16
	}
	if c.MaxTaskFailures <= 0 {
		c.MaxTaskFailures = 3
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// errJobExists marks a StartJob id collision (409 on the HTTP surface).
var errJobExists = errors.New("job already exists")

// malformed marks a job refused for its form — an unparsable pattern or a
// bad id — a 400 on the HTTP surface. Any other admission error refuses a
// well-formed pattern the coordinator will not run (a baseline variant, a
// label mismatch): a 422.
type malformed struct{ error }

func (e malformed) Unwrap() error { return e.error }

// errDegraded marks work refused because the WAL cannot currently make it
// durable (503 + Retry-After on the HTTP surface). The condition is
// self-healing: the flusher probes the log and admission resumes the moment
// a record lands again.
var errDegraded = errors.New("coordinator degraded: cluster state cannot be made durable")

// task states of the lease machine.
const (
	taskPending = "pending"
	taskLeased  = "leased"
	taskDone    = "done"
)

// taskLease is one unit of leasable work and its merge slot.
type taskLease struct {
	frontier []checkpoint.Task
	cands    int
	state    string
	// epoch increments on every grant; heartbeats and reports must present
	// the current epoch or be refused (the zombie fence).
	epoch   uint64
	worker  string
	expires time.Time
	ordered uint64
	// failures counts worker-side error reports for this task.
	failures int
	spilled  bool
}

// clusterJob is the coordinator-side state of one distributed job.
type clusterJob struct {
	id   string
	spec JobSpec
	// plan and planFP exist only while the job can still hand out or take
	// back work: a job restored from a snapshot in a terminal state keeps its
	// counters and task table but is never compiled again.
	plan   *oig.Plan
	planFP uint64
	// auto is the pattern's automorphism count (1 when the spec no longer
	// parses), fixed at admission or restore.
	auto int

	tasks []*taskLease
	// queue holds the indices of pending tasks, granted FIFO.
	queue []int

	state   string // running | done | failed
	ordered uint64
	stats   engine.Stats
	errMsg  string

	created  time.Time
	elapsed  time.Duration // fixed once done/failed
	doneN    int
	reassign int
	fenced   int
	spilled  int
	failures int
}

type workerInfo struct {
	lastSeen time.Time
	leased   int
}

// Coordinator owns the cluster's job/lease state and serves the protocol
// endpoints. Create with New; mount with Register (ohmserve does this when
// started with -cluster).
type Coordinator struct {
	store   *dal.Store
	graphFP uint64
	cfg     Config
	// wal is the durable log (nil for the volatile, Dir-less coordinator).
	// Set once in New before the coordinator is shared; the wal has its own
	// internal lock.
	wal *wal

	mu      sync.Mutex
	jobs    map[string]*clusterJob // guarded by mu
	order   []string               // job ids in creation order (lease fairness, status); guarded by mu
	workers map[string]*workerInfo // guarded by mu
	jobSeq  uint64                 // guarded by mu
	// wake is closed (and replaced) whenever a task becomes grantable outside
	// a lease request — job admitted, task requeued, remainder spilled, lease
	// reclaimed — and on Close; long-polled lease requests park on it.
	wake   chan struct{} // guarded by mu
	closed bool          // guarded by mu

	leases     expvar.Int // granted leases
	reports    expvar.Int // reports merged
	fenced     expvar.Int // zombie reports discarded
	reassigned expvar.Int // leases reclaimed from expired workers
	spills     expvar.Int // remainder tasks enqueued from partial reports
	jobsDone   expvar.Int

	replayedJobs      expvar.Int // jobs restored from snapshot+WAL at startup
	resurrectedLeases expvar.Int // leases force-expired back to the queue at startup
	degradedRejects   expvar.Int // requests shed with 503 while the WAL was failing
	vars              *expvar.Map
}

// New creates a coordinator over the store every worker must hold an
// identical copy of (verified by fingerprint on each lease request). With
// cfg.Dir set it first replays the durable state found there — restored
// running jobs have every lease force-expired (epochs preserved, so
// pre-crash zombie reports are fenced or salvaged exactly as live expiries
// are). The error is non-nil only when the durable state exists but cannot
// be trusted (ErrCorrupt) or the directory is unusable. The first
// Coordinator in a process publishes its metrics under the global expvar
// name "ohmcluster".
func New(store *dal.Store, cfg Config) (*Coordinator, error) {
	c := &Coordinator{
		store:   store,
		graphFP: store.Hypergraph().Fingerprint(),
		cfg:     cfg.withDefaults(),
		jobs:    map[string]*clusterJob{},
		workers: map[string]*workerInfo{},
		wake:    make(chan struct{}),
	}
	m := new(expvar.Map).Init()
	m.Set("leases", &c.leases)
	m.Set("reports", &c.reports)
	m.Set("fenced", &c.fenced)
	m.Set("reassigned", &c.reassigned)
	m.Set("spills", &c.spills)
	m.Set("jobs_done", &c.jobsDone)
	m.Set("replayed_jobs", &c.replayedJobs)
	m.Set("resurrected_leases", &c.resurrectedLeases)
	m.Set("degraded_rejects", &c.degradedRejects)
	m.Set("wal_records", expvar.Func(func() any { r, _, _ := c.walStats(); return r }))
	m.Set("wal_bytes", expvar.Func(func() any { _, b, _ := c.walStats(); return b }))
	m.Set("wal_compactions", expvar.Func(func() any { _, _, n := c.walStats(); return n }))
	c.vars = m
	if c.cfg.Dir != "" {
		if err := c.recover(); err != nil {
			return nil, err
		}
	}
	publish(m)
	return c, nil
}

func (c *Coordinator) walStats() (records, bytes, compactions int64) {
	if c.wal == nil {
		return 0, 0, 0
	}
	return c.wal.stats()
}

// Close releases every parked lease request (they answer 204, and later ones
// no longer park) and the durable-state resources: the WAL flusher goroutine
// and file. In-flight handlers fail their appends afterwards and shed.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	c.closed = true
	c.wakeLocked()
	c.mu.Unlock()
	if c.wal == nil {
		return nil
	}
	return c.wal.close()
}

// wakeLocked releases the lease requests parked on the current wake channel;
// each re-runs its grant attempt under the lock.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// Degraded reports whether the coordinator is currently refusing new work
// because its WAL cannot persist it (always false for the volatile
// coordinator, which promises no durability).
func (c *Coordinator) Degraded() bool {
	return c.wal != nil && c.wal.degraded() != nil
}

// degradedErr returns the errDegraded-wrapped shed cause, or nil when the
// coordinator can make state durable.
func (c *Coordinator) degradedErr() error {
	if c.wal == nil {
		return nil
	}
	if err := c.wal.degraded(); err != nil {
		return fmt.Errorf("%w: %v", errDegraded, err)
	}
	return nil
}

// RejectDegraded sheds one HTTP request with 503 + Retry-After and counts
// it; serve's /query handler uses it too, so no layer accepts work the
// coordinator cannot make durable.
func (c *Coordinator) RejectDegraded(w http.ResponseWriter, err error) {
	c.degradedRejects.Add(1)
	w.Header().Set("Retry-After", "1")
	msg := errDegraded.Error() + "; retry shortly"
	if err != nil {
		msg = err.Error() + "; retry shortly"
	}
	reject(w, http.StatusServiceUnavailable, msg)
}

var publishMu sync.Mutex

// publish registers m as the process-global "ohmcluster" expvar exactly once
// (expvar.Publish panics on duplicates, and tests create many Coordinators).
func publish(m *expvar.Map) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get("ohmcluster") == nil {
		expvar.Publish("ohmcluster", m)
	}
}

// Register mounts the cluster endpoints on mux: GET /cluster (status),
// POST /cluster/jobs, GET /cluster/jobs/{id}, and the worker protocol
// (POST /cluster/lease, /cluster/heartbeat, /cluster/report). The same jobs
// are also served under /jobs — the single-node face of the coordinator,
// whose one worker lives in the server's process: POST /jobs and
// GET /jobs/{id} are POST /cluster/jobs and GET /cluster/jobs/{id}, GET /jobs
// lists every job sorted by id, and POST /jobs/{id}/resume answers the job's
// status (resume is automatic: WAL replay restarts running jobs).
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /cluster", c.handleStatus)
	mux.HandleFunc("POST /cluster/jobs", c.handleJobCreate)
	mux.HandleFunc("GET /cluster/jobs/{id}", c.handleJobStatus)
	mux.HandleFunc("POST /cluster/lease", c.handleLease)
	mux.HandleFunc("POST /cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /cluster/report", c.handleReport)
	mux.HandleFunc("GET /jobs", c.handleJobList)
	mux.HandleFunc("POST /jobs", c.handleJobCreate)
	mux.HandleFunc("GET /jobs/{id}", c.handleJobStatus)
	mux.HandleFunc("POST /jobs/{id}/resume", c.handleJobStatus)
}

// compileSpec turns a job spec into its plan. Deterministic over an
// identical store, which is what lets WAL replay rebuild a job's plan and task
// partition from its admit record alone.
func (c *Coordinator) compileSpec(spec JobSpec) (*oig.Plan, error) {
	p, err := pattern.Parse(spec.Pattern)
	if err != nil {
		return nil, malformed{fmt.Errorf("bad pattern: %w", err)}
	}
	if err := engine.CheckVariant(spec.Variant); err != nil {
		return nil, err
	}
	plan, err := engine.CompilePlan(c.store, p, engine.Options{})
	if err != nil {
		return nil, err
	}
	// A label mismatch fails the job at creation, not on every worker.
	if err := engine.CheckLabels(c.store, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// buildJob compiles and partitions a job (id is filled in by the caller).
// Only the store is read; no coordinator state is touched.
func (c *Coordinator) buildJob(spec JobSpec) (*clusterJob, error) {
	plan, err := c.compileSpec(spec)
	if err != nil {
		return nil, err
	}
	parts := spec.Parts
	if parts <= 0 {
		parts = c.cfg.Parts
	}
	frontier := engine.Frontier(c.store, plan, parts)
	j := &clusterJob{
		spec: spec, plan: plan,
		planFP:  engine.PlanFingerprint(plan),
		auto:    plan.Pattern.Automorphisms(),
		state:   "running",
		created: c.cfg.now(),
	}
	for i := range frontier {
		j.tasks = append(j.tasks, &taskLease{
			frontier: frontier[i : i+1],
			cands:    len(frontier[i].Cands),
			state:    taskPending,
		})
		j.queue = append(j.queue, i)
	}
	if len(frontier) == 0 {
		// No first-step candidates: the job is trivially complete.
		j.state = "done"
	}
	return j, nil
}

// StartJob compiles, partitions, and enqueues a distributed job. An empty id
// picks a unique one. The candidate space of the first pattern hyperedge is
// split into the configured number of contiguous ranges, each an
// independently leasable task. On a durable coordinator the admission is
// WAL-logged and fsync'd before it is acknowledged; while the WAL is failing
// the job is refused with errDegraded instead.
func (c *Coordinator) StartJob(id string, spec JobSpec) (JobStatus, error) {
	j, err := c.buildJob(spec)
	if err != nil {
		return JobStatus{}, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if id == "" {
		c.jobSeq++
		id = fmt.Sprintf("cjob-%d", c.jobSeq)
	}
	if !validJobID(id) {
		return JobStatus{}, malformed{errors.New("bad job id: need 1-64 chars of [A-Za-z0-9_-]")}
	}
	if _, ok := c.jobs[id]; ok {
		return JobStatus{}, fmt.Errorf("job %q: %w", id, errJobExists)
	}
	if c.wal != nil {
		if err := c.degradedErr(); err != nil {
			return JobStatus{}, err
		}
		rec := &walRecord{T: recAdmit, Job: id, Spec: &spec, GraphFP: c.graphFP, JobSeq: c.jobSeq}
		if err := c.wal.append(true, rec); err != nil {
			return JobStatus{}, fmt.Errorf("%w: %v", errDegraded, err)
		}
	}
	j.id = id
	c.jobs[id] = j
	c.order = append(c.order, id)
	if j.state == "done" {
		c.jobsDone.Add(1)
		c.logFinishLocked(j)
	} else {
		c.wakeLocked()
	}
	return c.jobStatusLocked(j, false), nil
}

// JobStatusByID returns one job's status (tasks included).
func (c *Coordinator) JobStatusByID(id string) (JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	j, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return c.jobStatusLocked(j, true), true
}

// Status returns the full cluster view.
func (c *Coordinator) Status() ClusterStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	st := ClusterStatus{
		GraphFP:    c.graphFP,
		LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds(),
		Jobs:       []JobStatus{},
		Workers:    []WorkerStatus{},
		Leases:     c.leases.Value(),
		Reports:    c.reports.Value(),
		Fenced:     c.fenced.Value(),
		Reassigned: c.reassigned.Value(),
		Spills:     c.spills.Value(),

		Durable:           c.wal != nil,
		ReplayedJobs:      c.replayedJobs.Value(),
		ResurrectedLeases: c.resurrectedLeases.Value(),
		DegradedRejects:   c.degradedRejects.Value(),
	}
	if c.wal != nil {
		st.Degraded = c.wal.degraded() != nil
		st.WALRecords, st.WALBytes, st.WALCompactions = c.wal.stats()
	}
	for _, id := range c.order {
		st.Jobs = append(st.Jobs, c.jobStatusLocked(c.jobs[id], false))
	}
	now := c.cfg.now()
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := c.workers[name]
		st.Workers = append(st.Workers, WorkerStatus{
			Name:       name,
			LastSeenMS: float64(now.Sub(w.lastSeen)) / float64(time.Millisecond),
			Leased:     w.leased,
		})
	}
	return st
}

func (c *Coordinator) jobStatusLocked(j *clusterJob, withTasks bool) JobStatus {
	st := JobStatus{
		ID: j.id, State: j.state,
		Parts:         len(j.tasks),
		Done:          j.doneN,
		Ordered:       j.ordered,
		Automorphisms: j.auto,
		Reassigned:    j.reassign,
		Fenced:        j.fenced,
		Spilled:       j.spilled,
		Failures:      j.failures,
		Error:         j.errMsg,
	}
	st.Unique = st.Ordered / uint64(st.Automorphisms)
	if withTasks {
		st.Tasks = make([]TaskStatus, 0, len(j.tasks))
	}
	for i, t := range j.tasks {
		switch t.state {
		case taskPending:
			st.Pending++
		case taskLeased:
			st.Leased++
		}
		if withTasks {
			st.Tasks = append(st.Tasks, TaskStatus{
				ID: i, State: t.state, Cands: t.cands,
				Epoch: t.epoch, Worker: t.worker,
				Ordered: t.ordered, Spilled: t.spilled,
			})
		}
	}
	elapsed := j.elapsed
	if j.state == "running" {
		elapsed = c.cfg.now().Sub(j.created)
	}
	st.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	return st
}

// sweepLocked reclaims expired leases: the task returns to the queue (the
// epoch is bumped at the next grant, fencing the old holder). Sweeping is
// lazy — it runs at the top of every lease/heartbeat/report/status call —
// because reassignment only matters when a live worker is asking.
func (c *Coordinator) sweepLocked() {
	now := c.cfg.now()
	reclaimed := false
	for _, id := range c.order {
		j := c.jobs[id]
		if j.state != "running" {
			continue
		}
		for i, t := range j.tasks {
			if t.state == taskLeased && now.After(t.expires) {
				t.state = taskPending
				if w := c.workers[t.worker]; w != nil && w.leased > 0 {
					w.leased--
				}
				// Reclaimed tasks jump the queue: they are the job's oldest
				// outstanding work, so the straggler tail shrinks first.
				j.queue = append([]int{i}, j.queue...)
				j.reassign++
				c.reassigned.Add(1)
				reclaimed = true
			}
		}
	}
	if reclaimed {
		c.wakeLocked()
	}
}

// dequeue takes task idx off the pending queue, wherever it sits (no-op when
// it is not queued).
func (j *clusterJob) dequeue(idx int) {
	for qi, q := range j.queue {
		if q == idx {
			j.queue = append(j.queue[:qi], j.queue[qi+1:]...)
			return
		}
	}
}

func (c *Coordinator) touchWorkerLocked(name string) *workerInfo {
	w := c.workers[name]
	if w == nil {
		w = &workerInfo{}
		c.workers[name] = w
	}
	w.lastSeen = c.cfg.now()
	return w
}

// offerLocked builds the lease the next grant would hand out — the first
// pending task across running jobs in creation order, looking past skip (the
// task a report under merge is about to take off the queue) — without
// changing any state. It returns nil when no work is available. The caller
// makes grantRecord(lease) durable and only then commits with takeLocked: an
// epoch must never be re-issued after a crash while a pre-crash worker still
// holds it.
func (c *Coordinator) offerLocked(skip *taskLease) *Lease {
	for _, id := range c.order {
		j := c.jobs[id]
		if j.state != "running" {
			continue
		}
		for _, idx := range j.queue {
			t := j.tasks[idx]
			if t == skip {
				continue
			}
			snap := &checkpoint.Snapshot{
				Seq:      t.epoch + 1,
				PlanFP:   j.planFP,
				GraphFP:  c.graphFP,
				Frontier: t.frontier,
			}
			payload, err := snap.Marshal()
			if err != nil {
				// Encoding to memory cannot fail for a well-formed snapshot;
				// pass the task over rather than leasing garbage.
				continue
			}
			return &Lease{
				Job: j.id, Task: idx, Epoch: t.epoch + 1,
				Pattern:     j.spec.Pattern,
				Snapshot:    payload,
				HeartbeatMS: (c.cfg.LeaseTTL / 3).Milliseconds(),
				TTLMS:       c.cfg.LeaseTTL.Milliseconds(),
			}
		}
	}
	return nil
}

// grantRecord is the WAL record of handing lease to worker.
func grantRecord(lease *Lease, worker string) *walRecord {
	return &walRecord{T: recGrant, Job: lease.Job, Task: lease.Task, Epoch: lease.Epoch, Worker: worker}
}

// takeLocked commits an offered lease: the task leaves the queue, its epoch
// is bumped and the TTL starts.
func (c *Coordinator) takeLocked(lease *Lease, worker string) {
	j := c.jobs[lease.Job]
	t := j.tasks[lease.Task]
	j.dequeue(lease.Task)
	t.epoch = lease.Epoch
	t.state = taskLeased
	t.worker = worker
	t.expires = c.cfg.now().Add(c.cfg.LeaseTTL)
	c.touchWorkerLocked(worker).leased++
	c.leases.Add(1)
}

// grantLocked leases the next pending task to worker, (nil, nil) when there
// is none. On a durable coordinator the grant record (with its fencing epoch)
// is fsync'd before the lease leaves the process.
func (c *Coordinator) grantLocked(worker string) (*Lease, error) {
	lease := c.offerLocked(nil)
	if lease == nil {
		return nil, nil
	}
	if c.wal != nil {
		if err := c.wal.append(true, grantRecord(lease, worker)); err != nil {
			return nil, fmt.Errorf("%w: %v", errDegraded, err)
		}
	}
	c.takeLocked(lease, worker)
	return lease, nil
}

// maxLeaseWait caps how long one lease request may park, whatever it asks.
const maxLeaseWait = 30 * time.Second

// awaitLease grants worker the next pending task, parking for up to wait
// when there is none: a parked request is re-run by every wakeLocked and
// gives up (nil, nil — the handler's 204) when wait has passed, the
// coordinator is closed, or ctx (the client's connection) ends. wait <= 0 is
// the immediate answer. A parked request does not watch lease deadlines
// itself; an expiry is noticed by the next request of any kind, at the
// latest by this one's last attempt when wait runs out.
func (c *Coordinator) awaitLease(ctx context.Context, worker string, wait time.Duration) (*Lease, error) {
	deadline := time.Now().Add(min(wait, maxLeaseWait))
	for {
		c.mu.Lock()
		c.sweepLocked()
		c.touchWorkerLocked(worker)
		lease, err := c.grantLocked(worker)
		wake, closed := c.wake, c.closed
		c.mu.Unlock()
		left := time.Until(deadline)
		if lease != nil || err != nil || closed || left <= 0 {
			return lease, err
		}
		timer := time.NewTimer(left)
		select {
		case <-wake:
		case <-timer.C:
		case <-ctx.Done():
		}
		timer.Stop()
		if ctx.Err() != nil {
			return nil, nil
		}
	}
}

// lookupLocked resolves a (job, task, epoch, worker) tuple to its lease when
// the tuple still names the current assignment; the error explains the fence.
func (c *Coordinator) lookupLocked(job string, task int, epoch uint64, worker string) (*clusterJob, *taskLease, error) {
	j, ok := c.jobs[job]
	if !ok {
		return nil, nil, fmt.Errorf("unknown job %q", job)
	}
	if task < 0 || task >= len(j.tasks) {
		return nil, nil, fmt.Errorf("job %q has no task %d", job, task)
	}
	t := j.tasks[task]
	switch {
	case t.state == taskDone:
		return j, nil, fmt.Errorf("task %d already completed (epoch %d)", task, t.epoch)
	case t.epoch != epoch:
		return j, nil, fmt.Errorf("stale epoch %d for task %d (current %d): lease was reassigned", epoch, task, t.epoch)
	case t.worker != worker:
		return j, nil, fmt.Errorf("task %d epoch %d belongs to %q, not %q", task, epoch, t.worker, worker)
	}
	return j, t, nil
}

// Heartbeat renews (or, within the same epoch, resurrects) a lease; the
// returned error means the lease is gone and the worker must abandon the
// task.
func (c *Coordinator) Heartbeat(hb HeartbeatRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	c.touchWorkerLocked(hb.Worker)
	j, t, err := c.lookupLocked(hb.Job, hb.Task, hb.Epoch, hb.Worker)
	if err != nil {
		return err
	}
	if t.state == taskPending {
		// The lease expired but nobody re-claimed the task yet: the worker
		// was slow, not dead. Resurrect in place (same epoch) and pull the
		// task back off the queue.
		j.dequeue(hb.Task)
		t.state = taskLeased
		c.touchWorkerLocked(hb.Worker).leased++
	}
	t.expires = c.cfg.now().Add(c.cfg.LeaseTTL)
	return nil
}

// ReportTask merges one task report. The fencing rules: the report must name
// the task's current epoch and holder — a reassigned (or completed) task
// refuses the report, so every task's counters are merged exactly once. A
// report may arrive for a lease that expired but was not yet re-granted;
// the epoch still matches, so the work is salvaged rather than redone.
//
// A complete report (no error, no remainder) with LeaseNext set is answered
// with the worker's next lease when one is pending: the hand-out rides on
// the ack instead of costing a round trip of its own. The worker earned the
// right to it with the lease it is reporting — that one was granted against
// its dataset fingerprint. Fenced, failed and partial reports get no lease.
//
// On a durable coordinator the accepted report and the grant that rides on
// it are WAL-logged as one append and fsync'd before the merge is
// acknowledged; fenced reports are never logged (the fence is re-derived
// from grant epochs on replay).
func (c *Coordinator) ReportTask(rep Report) (*Lease, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	c.touchWorkerLocked(rep.Worker)
	j, t, err := c.lookupLocked(rep.Job, rep.Task, rep.Epoch, rep.Worker)
	if err != nil {
		if j != nil {
			j.fenced++
		}
		c.fenced.Add(1)
		return nil, err
	}
	var next *Lease
	if rep.LeaseNext && rep.Error == "" && len(rep.Remainder) == 0 {
		next = c.offerLocked(t)
	}
	rep.LeaseNext = false // a request modifier, not part of the merged outcome
	if c.wal != nil {
		if err := c.degradedErr(); err != nil {
			return nil, err
		}
		recs := []*walRecord{{T: recReport, Report: &rep}}
		if next != nil {
			recs = append(recs, grantRecord(next, rep.Worker))
		}
		if err := c.wal.append(true, recs...); err != nil {
			return nil, fmt.Errorf("%w: %v", errDegraded, err)
		}
	}
	wasRunning := j.state == "running"
	c.applyReportLocked(j, t, rep, true)
	if next != nil {
		c.takeLocked(next, rep.Worker)
	}
	if wasRunning && j.state != "running" {
		c.logFinishLocked(j)
	}
	return next, nil
}

// applyReportLocked merges one fence-checked report into its job — the
// single code path shared by the live handler and WAL replay (live gates the
// process-lifetime expvar counters; job-level counters always move).
func (c *Coordinator) applyReportLocked(j *clusterJob, t *taskLease, rep Report, live bool) {
	wasLeased := t.state == taskLeased
	if t.state == taskPending {
		// Expired but unclaimed: accept, and drop the queue entry.
		j.dequeue(rep.Task)
	}
	if wasLeased {
		if w := c.workers[t.worker]; w != nil && w.leased > 0 {
			w.leased--
		}
	}

	if rep.Error != "" {
		t.state = taskPending
		t.worker = ""
		t.failures++
		j.failures++
		j.queue = append(j.queue, rep.Task)
		if t.failures >= c.cfg.MaxTaskFailures {
			c.failJobLocked(j, fmt.Sprintf("task %d failed %d times, last: %s", rep.Task, t.failures, rep.Error))
		} else if live {
			c.wakeLocked()
		}
		return
	}

	t.state = taskDone
	t.ordered = rep.Ordered
	j.doneN++
	j.stats.Add(engine.UnpackStats(rep.Stats))
	// A sum past uint64 fails the job rather than wrapping to a wrong count.
	ordered, err := engine.MulAdd(j.ordered, rep.Ordered, 1)
	if err != nil {
		c.failJobLocked(j, err.Error())
		return
	}
	j.ordered = ordered

	// A job without a plan failed before the restart that restored it; there
	// is nothing left to re-enqueue a remainder into.
	if len(rep.Remainder) > 0 && j.plan != nil {
		snap, derr := checkpoint.Decode(bytes.NewReader(rep.Remainder))
		if derr == nil {
			derr = engine.ValidateSnapshot(c.store, j.plan, snap)
		}
		if derr != nil {
			// A bad remainder means part of the search space would silently
			// vanish; fail loudly instead of undercounting.
			c.failJobLocked(j, fmt.Sprintf("task %d spilled an unusable remainder: %v", rep.Task, derr))
			return
		}
		cands := 0
		for i := range snap.Frontier {
			cands += len(snap.Frontier[i].Cands)
		}
		j.tasks = append(j.tasks, &taskLease{
			frontier: snap.Frontier,
			cands:    cands,
			state:    taskPending,
			spilled:  true,
		})
		j.queue = append(j.queue, len(j.tasks)-1)
		j.spilled++
		if live {
			c.spills.Add(1)
			c.wakeLocked()
		}
	}

	if live {
		c.reports.Add(1)
	}
	if j.doneN == len(j.tasks) && len(j.queue) == 0 && j.state == "running" {
		j.state = "done"
		j.elapsed = c.cfg.now().Sub(j.created)
		if live {
			c.jobsDone.Add(1)
		}
	}
}

// logFinishLocked records a job's terminal state and, once the log has
// outgrown walCompactBytes, compacts the WAL: a finished job's task frontiers
// collapse into a few counters, so completion is the natural truncation
// point — but a snapshot rewrites every job, so it is paid per stretch of
// log, not per job. Finish records never gate an external ack — replay
// re-derives the terminal state from the merged reports anyway — so a
// degraded append is simply skipped.
func (c *Coordinator) logFinishLocked(j *clusterJob) {
	if c.wal == nil {
		return
	}
	rec := &walRecord{T: recFinish, Job: j.id, State: j.state, Err: j.errMsg, Elapsed: int64(j.elapsed)}
	if err := c.wal.append(false, rec); err != nil {
		return
	}
	if c.wal.wantsCompaction() {
		c.compactLocked()
	}
}

// compactLocked folds the full in-memory state into the snapshot file and
// truncates the log. Failures degrade the WAL (and are retried at the next
// completion) rather than surfacing: compaction is an optimization, not a
// correctness step.
func (c *Coordinator) compactLocked() {
	if c.wal == nil {
		return
	}
	st, err := c.encodeStateLocked()
	if err != nil {
		return
	}
	_ = c.wal.compactTo(st)
}

// --- Durable state: recovery, replay, snapshot encoding ------------------

// recover opens cfg.Dir, replays snapshot + WAL into the coordinator, and
// brings every restored running job back to a leasable state: all leases
// are force-expired (their epochs preserved), so a pre-crash worker's late
// report is salvaged or fenced by exactly the rules a live expiry applies.
// A log that has outgrown walCompactBytes is compacted right after replay —
// a crash loop must not replay an ever-growing log — and the background
// flusher is started last.
func (c *Coordinator) recover() error {
	w, state, recs, err := openWAL(c.cfg.Dir, c.cfg.WALWrap)
	if err != nil {
		return err
	}
	c.wal = w

	c.mu.Lock()
	if state != nil {
		c.restoreStateLocked(state)
	}
	for i := range recs {
		if state != nil && recs[i].Seq <= state.LastSeq {
			continue // already folded into the snapshot
		}
		if recs[i].T == recProbe {
			continue
		}
		c.replayRecordLocked(&recs[i])
	}
	resurrected := c.forceExpireLocked()
	replayed := len(c.jobs)
	if w.wantsCompaction() {
		c.compactLocked()
	}
	c.mu.Unlock()

	c.replayedJobs.Add(int64(replayed))
	c.resurrectedLeases.Add(int64(resurrected))
	w.start(c.cfg.FlushEvery)
	return nil
}

// failJobLocked marks j failed with a replay-diagnosed cause (no-op once
// terminal).
func (c *Coordinator) failJobLocked(j *clusterJob, msg string) {
	if j.state != "running" {
		return
	}
	j.state = "failed"
	j.errMsg = msg
	j.elapsed = c.cfg.now().Sub(j.created)
}

// insertReplayedJobLocked registers a job rebuilt during recovery.
func (c *Coordinator) insertReplayedJobLocked(id string, j *clusterJob) {
	j.id = id
	c.jobs[id] = j
	c.order = append(c.order, id)
}

// insertUnbuildableJobLocked registers an admitted job that recovery cannot
// rebuild, failed with the diagnosed cause: it has no plan and no tasks.
func (c *Coordinator) insertUnbuildableJobLocked(id string, spec JobSpec, msg string) {
	j := &clusterJob{spec: spec, auto: specAutomorphisms(spec), state: "running", created: c.cfg.now()}
	c.failJobLocked(j, msg)
	c.insertReplayedJobLocked(id, j)
}

// replayRecordLocked applies one WAL record. Replay is lenient per job and
// strict per cluster: a record that no longer makes sense (spec stopped
// compiling, dataset changed, task index out of range) fails that job loudly
// rather than silently undercounting, but never aborts startup — the other
// jobs' durability must not be hostage to one bad one.
func (c *Coordinator) replayRecordLocked(rec *walRecord) {
	switch rec.T {
	case recAdmit:
		if rec.JobSeq > c.jobSeq {
			c.jobSeq = rec.JobSeq
		}
		if _, ok := c.jobs[rec.Job]; ok {
			return // duplicate admit (compaction race); first one wins
		}
		if rec.Spec == nil {
			return
		}
		// The log carries no task partition, so an admitted job is rebuilt
		// through the compiler even when a later record finishes it; the
		// compaction threshold bounds how many such jobs a log can hold.
		if rec.GraphFP != c.graphFP {
			c.insertUnbuildableJobLocked(rec.Job, *rec.Spec, fmt.Sprintf("replay: job was admitted against dataset %#x, coordinator now serves %#x", rec.GraphFP, c.graphFP))
			return
		}
		j, err := c.buildJob(*rec.Spec)
		if err != nil {
			c.insertUnbuildableJobLocked(rec.Job, *rec.Spec, "replay: job spec no longer compiles: "+err.Error())
			return
		}
		c.insertReplayedJobLocked(rec.Job, j)

	case recGrant:
		j := c.jobs[rec.Job]
		if j == nil || j.state != "running" {
			return
		}
		if rec.Task < 0 || rec.Task >= len(j.tasks) {
			c.failJobLocked(j, fmt.Sprintf("replay: grant names task %d of %d", rec.Task, len(j.tasks)))
			return
		}
		j.dequeue(rec.Task)
		t := j.tasks[rec.Task]
		t.state = taskLeased
		t.epoch = rec.Epoch
		t.worker = rec.Worker
		// expires stays zero: forceExpireLocked reclaims it either way.

	case recReport:
		if rec.Report == nil {
			return
		}
		rep := *rec.Report
		j, t, err := c.lookupLocked(rep.Job, rep.Task, rep.Epoch, rep.Worker)
		if err != nil {
			// An exact duplicate of an already-applied report can exist on
			// disk (an fsync failed after the write, the merge was acked,
			// and the worker's retry logged it again): skip it. Anything
			// else is a real inconsistency — fail the job loudly.
			if j != nil && rep.Task >= 0 && rep.Task < len(j.tasks) {
				d := j.tasks[rep.Task]
				if d.state == taskDone && d.epoch == rep.Epoch && d.worker == rep.Worker {
					return
				}
			}
			if j != nil {
				c.failJobLocked(j, "replay: report does not match granted lease: "+err.Error())
			}
			return
		}
		c.applyReportLocked(j, t, rep, false)

	case recFinish:
		j := c.jobs[rec.Job]
		if j == nil {
			return
		}
		if rec.State == "done" || rec.State == "failed" {
			j.state = rec.State
			j.errMsg = rec.Err
			j.elapsed = time.Duration(rec.Elapsed)
		}
	}
}

// forceExpireLocked reclaims every leased task after replay: the workers
// holding them may be gone (and their heartbeats certainly are). Epochs are
// preserved, so a surviving worker's in-flight report is salvaged via the
// expired-but-unclaimed path, and a re-grant bumps the epoch to fence it —
// identical semantics to a live TTL expiry. Returns the number reclaimed.
func (c *Coordinator) forceExpireLocked() int {
	n := 0
	for _, id := range c.order {
		j := c.jobs[id]
		if j.state != "running" {
			continue
		}
		for i := len(j.tasks) - 1; i >= 0; i-- {
			t := j.tasks[i]
			if t.state == taskLeased {
				t.state = taskPending
				j.queue = append([]int{i}, j.queue...)
				n++
			}
		}
	}
	return n
}

// specAutomorphisms is the automorphism count of a spec's pattern without
// compiling it (1 when the literal no longer parses).
func specAutomorphisms(spec JobSpec) int {
	p, err := pattern.Parse(spec.Pattern)
	if err != nil {
		return 1
	}
	return p.Automorphisms()
}

// restoreStateLocked rebuilds the coordinator from a compacted snapshot. A
// job still running is recompiled from its spec (deterministic over the same
// store) and its task frontiers are validated against the recompiled plan
// before they become leasable again; a done or failed job is restored from
// its counters alone and never sees the compiler.
func (c *Coordinator) restoreStateLocked(st *walState) {
	c.jobSeq = st.JobSeq
	for i := range st.Jobs {
		wj := &st.Jobs[i]
		j := &clusterJob{
			spec:     wj.Spec,
			auto:     specAutomorphisms(wj.Spec),
			state:    wj.State,
			errMsg:   wj.Err,
			ordered:  wj.Ordered,
			stats:    engine.UnpackStats(wj.Stats),
			created:  time.Unix(0, wj.CreatedNS),
			elapsed:  time.Duration(wj.ElapsedNS),
			reassign: wj.Reassign,
			fenced:   wj.Fenced,
			spilled:  wj.Spilled,
			failures: wj.Failures,
		}
		if j.state == "running" {
			if st.GraphFP != c.graphFP {
				c.failJobLocked(j, fmt.Sprintf("replay: snapshot is for dataset %#x, coordinator now serves %#x", st.GraphFP, c.graphFP))
			} else if plan, err := c.compileSpec(wj.Spec); err != nil {
				c.failJobLocked(j, "replay: job spec no longer compiles: "+err.Error())
			} else {
				j.plan, j.planFP = plan, engine.PlanFingerprint(plan)
			}
		}
		for ti := range wj.Tasks {
			wt := &wj.Tasks[ti]
			t := &taskLease{
				state:    wt.State,
				epoch:    wt.Epoch,
				worker:   wt.Worker,
				ordered:  wt.Ordered,
				failures: wt.Failures,
				spilled:  wt.Spilled,
				cands:    wt.Cands,
			}
			if t.state == taskDone {
				j.doneN++
			}
			if len(wt.Frontier) > 0 && j.plan != nil {
				snap, derr := checkpoint.Unmarshal(wt.Frontier)
				if derr == nil {
					derr = engine.ValidateSnapshot(c.store, j.plan, snap)
				}
				if derr != nil {
					c.failJobLocked(j, fmt.Sprintf("replay: task %d frontier unusable: %v", ti, derr))
				} else {
					t.frontier = snap.Frontier
				}
			}
			j.tasks = append(j.tasks, t)
		}
		j.queue = append(j.queue, wj.Queue...)
		c.insertReplayedJobLocked(wj.ID, j)
	}
}

// encodeStateLocked captures the full coordinator state as a snapshot.
// Frontiers are only carried for tasks that can still be leased; a done
// task's work already lives in the merged counters.
func (c *Coordinator) encodeStateLocked() (*walState, error) {
	st := &walState{GraphFP: c.graphFP, JobSeq: c.jobSeq, LastSeq: c.wal.lastSeq()}
	for _, id := range c.order {
		j := c.jobs[id]
		wj := walJob{
			ID:        j.id,
			Spec:      j.spec,
			State:     j.state,
			Err:       j.errMsg,
			Ordered:   j.ordered,
			Stats:     engine.PackStats(j.stats),
			CreatedNS: j.created.UnixNano(),
			ElapsedNS: int64(j.elapsed),
			Queue:     append([]int(nil), j.queue...),
			Reassign:  j.reassign,
			Fenced:    j.fenced,
			Spilled:   j.spilled,
			Failures:  j.failures,
		}
		for ti, t := range j.tasks {
			wt := walTask{
				State:    t.state,
				Epoch:    t.epoch,
				Worker:   t.worker,
				Ordered:  t.ordered,
				Failures: t.failures,
				Spilled:  t.spilled,
				Cands:    t.cands,
			}
			if j.state == "running" && t.state != taskDone && len(t.frontier) > 0 {
				snap := &checkpoint.Snapshot{
					Seq:      t.epoch,
					PlanFP:   j.planFP,
					GraphFP:  c.graphFP,
					Frontier: t.frontier,
				}
				b, err := snap.Marshal()
				if err != nil {
					return nil, fmt.Errorf("job %q task %d: %w", j.id, ti, err)
				}
				wt.Frontier = b
			}
			wj.Tasks = append(wj.Tasks, wt)
		}
		st.Jobs = append(st.Jobs, wj)
	}
	return st, nil
}

// --- HTTP handlers -------------------------------------------------------

// Body caps. A task frontier — a report's remainder, and the lease that hands
// a spilled remainder on — can carry large candidate ranges, so those bodies
// get maxTaskBody; every other request body is a few fields and gets maxBody.
const (
	maxBody     = 1 << 20
	maxTaskBody = 64 << 20
)

func decodeStrict(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// writeJSON answers a protocol request in compact JSON; only the
// human-facing GET /cluster indents (handleStatus).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// The response writer owns delivery failures (client gone); nothing
	// useful to do with an encode error here.
	_ = json.NewEncoder(w).Encode(v)
}

func reject(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

// validJobID accepts exactly the names safe in URLs and file stems.
func validJobID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, ch := range id {
		switch {
		case ch == '-' || ch == '_':
		case '0' <= ch && ch <= '9':
		case 'a' <= ch && ch <= 'z':
		case 'A' <= ch && ch <= 'Z':
		default:
			return false
		}
	}
	return true
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(c.Status())
}

// handleJobList answers GET /jobs: every job's status row, sorted by id.
func (c *Coordinator) handleJobList(w http.ResponseWriter, r *http.Request) {
	jobs := c.Status().Jobs
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	writeJSON(w, http.StatusOK, map[string][]JobStatus{"jobs": jobs})
}

func (c *Coordinator) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req jobCreateRequest
	if err := decodeStrict(w, r, &req, maxBody); err != nil {
		reject(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Pattern == "" {
		reject(w, http.StatusBadRequest, "missing \"pattern\"")
		return
	}
	st, err := c.StartJob(req.ID, req.JobSpec)
	if err != nil {
		if errors.Is(err, errDegraded) {
			c.RejectDegraded(w, err)
			return
		}
		code := http.StatusUnprocessableEntity
		if errors.Is(err, errJobExists) {
			code = http.StatusConflict
		} else if errors.As(err, new(malformed)) {
			code = http.StatusBadRequest
		}
		reject(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (c *Coordinator) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := c.JobStatusByID(id)
	if !ok {
		reject(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := decodeStrict(w, r, &req, maxBody); err != nil {
		reject(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Worker == "" {
		reject(w, http.StatusBadRequest, "missing \"worker\"")
		return
	}
	if req.GraphFP != c.graphFP {
		reject(w, http.StatusConflict, fmt.Sprintf(
			"worker data hypergraph (fingerprint %#x) differs from the coordinator's (%#x): every node must load the identical dataset", req.GraphFP, c.graphFP))
		return
	}
	lease, err := c.awaitLease(r.Context(), req.Worker, time.Duration(req.WaitMS)*time.Millisecond)
	if err != nil {
		c.RejectDegraded(w, err)
		return
	}
	if lease == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, lease)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := decodeStrict(w, r, &req, maxBody); err != nil {
		reject(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := c.Heartbeat(req); err != nil {
		reject(w, http.StatusGone, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ttl_ms": c.cfg.LeaseTTL.Milliseconds()})
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	var req Report
	if err := decodeStrict(w, r, &req, maxTaskBody); err != nil {
		reject(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	next, err := c.ReportTask(req)
	if err != nil {
		if errors.Is(err, errDegraded) {
			c.RejectDegraded(w, err)
			return
		}
		reject(w, http.StatusGone, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ReportAck{Merged: true, Lease: next})
}
