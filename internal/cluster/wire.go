package cluster

// Wire-level types of the coordinator/worker HTTP/JSON protocol. The task
// payload itself is not JSON: a leased task range (and a spilled remainder)
// travels as an OHMC snapshot — the versioned, CRC-protected checkpoint
// format of internal/checkpoint — carried base64-inline in the JSON body.
// That buys the wire what it buys the disk: torn/corrupt payloads are
// rejected structurally, and the embedded plan/graph fingerprints stop a
// worker from mining a lease against the wrong dataset or matching order.

// JobSpec describes one distributed mining job — the body of
// POST /cluster/jobs (plus an optional "id").
type JobSpec struct {
	// Pattern is the pattern literal, e.g. "0 1 2; 2 3 4". The literal
	// syntax (pattern.Parse) has no labels, so a job's pattern is always
	// unlabeled; compileSpec's engine.CheckLabels preflight is a guard for
	// the day it is not, and no job body can trigger it today.
	Pattern string `json:"pattern"`
	// Variant is recognised only to be refused (engine.CheckVariant): ""
	// and "OHMiner" pass, a baseline's name fails the job.
	Variant string `json:"variant,omitempty"`
	// Parts overrides the coordinator's default task partition count.
	Parts int `json:"parts,omitempty"`
}

// jobCreateRequest is the body of POST /cluster/jobs.
type jobCreateRequest struct {
	// ID names the job (letters, digits, '-', '_'; ≤64 chars). Empty picks
	// a unique one.
	ID string `json:"id,omitempty"`
	JobSpec
}

// LeaseRequest is the body of POST /cluster/lease: a worker asking for work.
type LeaseRequest struct {
	// Worker names the requesting worker; leases, heartbeats, and reports
	// are fenced per (task, epoch, worker).
	Worker string `json:"worker"`
	// GraphFP is the fingerprint of the worker's local data hypergraph; a
	// mismatch is refused up front (409) instead of failing every lease the
	// worker would mine.
	GraphFP uint64 `json:"graph_fp"`
	// WaitMS, when positive, long-polls: with no work pending the request
	// parks on the coordinator until a task becomes grantable or WaitMS have
	// passed (capped at 30 s), instead of answering 204 at once. Absent or 0
	// is the immediate answer.
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// Lease is the 200 body of POST /cluster/lease, and rides on a report's ack
// (ReportAck) when the report asked for the next one. A 204 means no work
// became available within the request's WaitMS.
type Lease struct {
	Job   string `json:"job"`
	Task  int    `json:"task"`
	Epoch uint64 `json:"epoch"`
	// Pattern lets the worker compile the job's exact plan locally; the
	// snapshot's embedded fingerprint then proves the compilation matched.
	// Variant is recognised only to be refused, as on JobSpec: a lease naming
	// a baseline is reported back as a task error.
	Pattern string `json:"pattern"`
	Variant string `json:"variant,omitempty"`
	// Snapshot is the OHMC-encoded task payload: a zero-counter snapshot
	// whose frontier is exactly the leased task range.
	Snapshot []byte `json:"snapshot"`
	// HeartbeatMS is the renewal period the worker should post heartbeats
	// at; TTLMS is the lease deadline a missed heartbeat forfeits.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	TTLMS       int64 `json:"ttl_ms"`
}

// HeartbeatRequest is the body of POST /cluster/heartbeat. A 200 renews the
// lease; a 410 means the lease is gone (expired and reassigned) and the
// worker should abandon the task.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Job    string `json:"job"`
	Task   int    `json:"task"`
	Epoch  uint64 `json:"epoch"`
}

// Report is the body of POST /cluster/report: the outcome of one leased
// task. A 200 means the counters were merged (exactly once); a 410 means
// the report was fenced — the lease epoch no longer matches, i.e. the task
// was reassigned while this worker was presumed dead, and its late counts
// are discarded to preserve exactly-once merging.
type Report struct {
	Worker string `json:"worker"`
	Job    string `json:"job"`
	Task   int    `json:"task"`
	Epoch  uint64 `json:"epoch"`
	// Ordered is the number of ordered embeddings this task's exploration
	// counted.
	Ordered uint64 `json:"ordered"`
	// Stats carries the engine's packed Stats counters (engine.PackStats).
	Stats []uint64 `json:"stats,omitempty"`
	// Remainder, when present, is the OHMC-encoded frontier the worker did
	// not finish (graceful shutdown mid-task): Ordered covers everything
	// outside it, and the coordinator re-enqueues it as a fresh task —
	// together they preserve the exactly-once partition of the search space.
	Remainder []byte `json:"remainder,omitempty"`
	// Error reports a task that failed on the worker (bad plan, panic);
	// the coordinator re-queues the task and fails the job after repeated
	// failures.
	Error string `json:"error,omitempty"`
	// LeaseNext asks for the worker's next lease on the ack of this report,
	// saving the /cluster/lease round trip. Only a complete report (no
	// Error, no Remainder) that is merged is answered with one.
	LeaseNext bool `json:"lease_next,omitempty"`
}

// ReportAck is the 200 body of POST /cluster/report.
type ReportAck struct {
	Merged bool `json:"merged"`
	// Lease is the next task for the reporting worker, present when the
	// report set LeaseNext and work was pending. It is granted exactly as by
	// /cluster/lease — durable before the ack leaves, TTL running — so an
	// ack lost on the wire costs one lease expiry, never a count.
	Lease *Lease `json:"lease,omitempty"`
}

// TaskStatus summarizes one task lease in a job status.
type TaskStatus struct {
	ID    int    `json:"id"`
	State string `json:"state"` // pending | leased | done
	// Cands is the task's candidate-range length (depth-0 tasks) or frontier
	// candidate total (spilled remainders).
	Cands   int    `json:"cands"`
	Epoch   uint64 `json:"epoch,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Ordered uint64 `json:"ordered,omitempty"`
	// Spilled marks a task created from a reported remainder rather than the
	// initial partition.
	Spilled bool `json:"spilled,omitempty"`
}

// JobStatus is the JSON body of GET /cluster/jobs/{id} and the per-job rows
// of GET /cluster.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // running | done | failed
	// Parts is the current task count (initial partitions + spills).
	Parts   int `json:"parts"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	// Ordered/Unique are the merged counts so far (final once State=done).
	Ordered       uint64 `json:"ordered"`
	Unique        uint64 `json:"unique"`
	Automorphisms int    `json:"automorphisms"`
	// Reassigned counts leases reclaimed from expired workers; Fenced counts
	// late zombie reports discarded; Spilled counts remainder tasks created
	// from partial reports.
	Reassigned int `json:"reassigned,omitempty"`
	Fenced     int `json:"fenced,omitempty"`
	Spilled    int `json:"spilled,omitempty"`
	// Failures counts worker-side task errors (the job fails after
	// MaxTaskFailures on one task).
	Failures  int          `json:"failures,omitempty"`
	ElapsedMS float64      `json:"elapsed_ms"`
	Error     string       `json:"error,omitempty"`
	Tasks     []TaskStatus `json:"tasks,omitempty"`
}

// WorkerStatus is one row of the worker table in GET /cluster.
type WorkerStatus struct {
	Name string `json:"name"`
	// LastSeenMS is the age of the worker's last lease/heartbeat/report.
	LastSeenMS float64 `json:"last_seen_ms"`
	// Leased is the number of tasks the worker currently holds.
	Leased int `json:"leased"`
}

// ClusterStatus is the JSON body of GET /cluster.
type ClusterStatus struct {
	GraphFP    uint64         `json:"graph_fp"`
	LeaseTTLMS int64          `json:"lease_ttl_ms"`
	Jobs       []JobStatus    `json:"jobs"`
	Workers    []WorkerStatus `json:"workers"`
	// Cumulative coordinator counters (mirrored in expvar "ohmcluster").
	Leases     int64 `json:"leases"`
	Reports    int64 `json:"reports"`
	Fenced     int64 `json:"fenced"`
	Reassigned int64 `json:"reassigned"`
	Spills     int64 `json:"spills"`

	// Durability & recovery observability (see docs/DISTRIBUTED.md,
	// "Coordinator durability & recovery"). Durable is true when the
	// coordinator runs with a WAL (-cluster-dir); Degraded means it is
	// currently shedding work because the WAL cannot persist it.
	//
	// WALRecords counts appends to the log this process lifetime: one Write
	// and at most one fsync each, carrying every record behind one
	// acknowledgement (a merged report and the lease granted on its ack are
	// one append).
	Durable           bool  `json:"durable"`
	Degraded          bool  `json:"degraded,omitempty"`
	WALRecords        int64 `json:"wal_records,omitempty"`
	WALBytes          int64 `json:"wal_bytes,omitempty"`
	WALCompactions    int64 `json:"wal_compactions,omitempty"`
	ReplayedJobs      int64 `json:"replayed_jobs,omitempty"`
	ResurrectedLeases int64 `json:"resurrected_leases,omitempty"`
	DegradedRejects   int64 `json:"degraded_rejects,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}
