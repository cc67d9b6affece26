package serve

// The jobs subsystem: long mining runs as durable, restartable server-side
// jobs. A query (POST /query) is bounded by a timeout and answers inline; a
// job (POST /jobs) runs without a deadline, checkpoints its exact search
// frontier to CheckpointDir every CheckpointEvery, and survives both a
// server Abort (SIGTERM writes a final snapshot through the engine's
// cancellation path) and a full process restart: POST /jobs/{id}/resume
// reloads the persisted spec + snapshot and continues with exactly-once
// counting. On-disk layout per job, all writes atomic (temp + rename):
//
//	<id>.job   the job spec (pattern, limit, order) — written at creation
//	<id>.ckpt  the rolling snapshot — replaced at each checkpoint
//	<id>.done  the final result — written once on completion (.ckpt removed)

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ohminer"
	"ohminer/internal/engine"
)

// JobSpec is the persisted description of a job — everything needed to
// restart it after a crash. It is also the body of POST /jobs (plus the
// optional "id").
type JobSpec struct {
	// Pattern is the pattern literal, as in QueryRequest.
	Pattern string `json:"pattern"`
	// Variant is recognised only to be refused (engine.CheckVariant): a
	// baseline's name is a 422 at creation and fails a persisted job that
	// carries one.
	Variant string `json:"variant,omitempty"`
	// Limit stops the job after this many ordered embeddings (0 = the
	// server's MaxLimit, which may be unlimited).
	Limit uint64 `json:"limit,omitempty"`
	// DataAwareOrder is accepted and ignored, as in QueryRequest.
	DataAwareOrder bool `json:"data_aware_order,omitempty"`
}

// jobCreateRequest is the body of POST /jobs.
type jobCreateRequest struct {
	// ID names the job (letters, digits, '-', '_'; ≤64 chars). Empty picks
	// a unique one.
	ID string `json:"id,omitempty"`
	JobSpec
}

// JobStatus is the JSON body of GET /jobs/{id} (and of the 202 responses).
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // queued | running | done | failed | interrupted
	// Ordered is the embedding count so far: the last snapshot's count
	// while the job is running or interrupted, the final count once done.
	Ordered uint64 `json:"ordered,omitempty"`
	// CheckpointSeq numbers the freshest snapshot across all of the job's
	// runs (resumes continue the sequence).
	CheckpointSeq uint64 `json:"checkpoint_seq,omitempty"`
	// Checkpoints/CheckpointBytes/CheckpointErrors aggregate the engine's
	// snapshot accounting for the finished run.
	Checkpoints      uint64 `json:"checkpoints,omitempty"`
	CheckpointBytes  uint64 `json:"checkpoint_bytes,omitempty"`
	CheckpointErrors uint64 `json:"checkpoint_errors,omitempty"`
	// Resumes counts how often this job was resumed (this process).
	Resumes uint64         `json:"resumes,omitempty"`
	Result  *QueryResponse `json:"result,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// job is the in-memory state of one job in this process.
type job struct {
	id   string
	spec JobSpec

	mu      sync.Mutex
	state   string         // guarded by mu
	result  *QueryResponse // guarded by mu
	stats   ohminer.Stats  // guarded by mu
	seq     uint64         // guarded by mu
	ordered uint64         // guarded by mu
	resumes uint64         // guarded by mu
	errMsg  string         // guarded by mu
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, State: j.state,
		Ordered:          j.ordered,
		CheckpointSeq:    j.seq,
		Checkpoints:      j.stats.Checkpoints,
		CheckpointBytes:  j.stats.CheckpointBytes,
		CheckpointErrors: j.stats.CheckpointErrors,
		Resumes:          j.resumes,
		Result:           j.result,
		Error:            j.errMsg,
	}
	if j.result != nil {
		st.Ordered = j.result.Ordered
	}
	return st
}

// validJobID accepts exactly the names that are safe as file stems: no
// separators, no dots, nothing a path traversal could smuggle through.
func validJobID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c == '-' || c == '_':
		case '0' <= c && c <= '9':
		case 'a' <= c && c <= 'z':
		case 'A' <= c && c <= 'Z':
		default:
			return false
		}
	}
	return true
}

func (s *Server) jobPath(id, ext string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+ext)
}

// writeFileAtomic persists data at path via a temp file in the same
// directory, fsynced before it is renamed over path — as checkpoint.WriteFile
// does — so a crash mid-write never leaves a half-written spec or result
// behind, and a power loss after the rename cannot lose a result whose
// checkpoint finish has already removed.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".job-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

func (s *Server) jobsEnabled(w http.ResponseWriter) bool {
	if s.cfg.CheckpointDir == "" {
		s.reject(w, http.StatusServiceUnavailable, "jobs disabled: server started without a checkpoint directory")
		return false
	}
	return true
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	if s.shedDegraded(w) {
		return
	}
	var req jobCreateRequest
	if err := decodeStrict(w, r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Pattern == "" {
		s.reject(w, http.StatusBadRequest, "missing \"pattern\"")
		return
	}
	if _, err := ohminer.ParsePattern(req.Pattern); err != nil {
		s.reject(w, http.StatusBadRequest, "bad pattern: "+err.Error())
		return
	}
	if err := engine.CheckVariant(req.Variant); err != nil {
		s.reject(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	id := req.ID
	if id == "" {
		id = fmt.Sprintf("job-%d-%d", time.Now().UnixNano(), s.jobSeq.Add(1))
	}
	if !validJobID(id) {
		s.reject(w, http.StatusBadRequest, "bad job id: need 1-64 chars of [A-Za-z0-9_-]")
		return
	}

	s.jobsMu.Lock()
	if _, ok := s.jobs[id]; ok {
		s.jobsMu.Unlock()
		s.reject(w, http.StatusConflict, "job id already exists")
		return
	}
	if _, err := os.Stat(s.jobPath(id, ".job")); err == nil {
		s.jobsMu.Unlock()
		s.reject(w, http.StatusConflict, "job id already exists on disk (resume it instead)")
		return
	}
	spec, err := json.Marshal(req.JobSpec)
	if err == nil {
		err = writeFileAtomic(s.jobPath(id, ".job"), append(spec, '\n'))
	}
	if err != nil {
		s.jobsMu.Unlock()
		s.reject(w, http.StatusInternalServerError, "persist job spec: "+err.Error())
		return
	}
	j := &job{id: id, spec: req.JobSpec, state: "queued"}
	s.jobs[id] = j
	s.jobsMu.Unlock()

	s.jobsStarted.Add(1)
	s.jobWG.Add(1)
	go s.runJob(j, nil)
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleJobList answers GET /jobs: one summary row per job this server
// knows about — live jobs in this process, plus jobs a previous process left
// behind in CheckpointDir (their state reconstructed from the .job/.done
// files exactly as GET /jobs/{id} would). Sorted by id for stable output.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	statuses := map[string]JobStatus{}
	s.jobsMu.Lock()
	live := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.jobsMu.Unlock()
	for _, j := range live {
		statuses[j.id] = j.status()
	}
	entries, err := os.ReadDir(s.cfg.CheckpointDir)
	if err != nil {
		s.reject(w, http.StatusInternalServerError, "scan checkpoint dir: "+err.Error())
		return
	}
	for _, e := range entries {
		name := e.Name()
		ext := filepath.Ext(name)
		if ext != ".job" && ext != ".done" {
			continue
		}
		id := name[:len(name)-len(ext)]
		if !validJobID(id) {
			continue
		}
		if _, ok := statuses[id]; ok {
			continue
		}
		st, err := s.diskJobStatus(id)
		if err != nil {
			continue
		}
		statuses[id] = st
	}
	ids := make([]string, 0, len(statuses))
	for id := range statuses {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		out = append(out, statuses[id])
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	id := r.PathValue("id")
	if !validJobID(id) {
		s.reject(w, http.StatusBadRequest, "bad job id")
		return
	}
	s.jobsMu.Lock()
	j, ok := s.jobs[id]
	s.jobsMu.Unlock()
	if ok {
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	st, err := s.diskJobStatus(id)
	if err != nil {
		s.reject(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// diskJobStatus reconstructs a job's state purely from CheckpointDir — the
// view a freshly restarted server has before any resume.
func (s *Server) diskJobStatus(id string) (JobStatus, error) {
	if data, err := os.ReadFile(s.jobPath(id, ".done")); err == nil {
		var res QueryResponse
		if err := json.Unmarshal(data, &res); err != nil {
			return JobStatus{}, fmt.Errorf("job %s: corrupt result file: %v", id, err)
		}
		return JobStatus{ID: id, State: "done", Ordered: res.Ordered, Result: &res}, nil
	}
	if _, err := os.Stat(s.jobPath(id, ".job")); err != nil {
		return JobStatus{}, fmt.Errorf("unknown job %q", id)
	}
	st := JobStatus{ID: id, State: "interrupted"}
	if snap, err := ohminer.ReadCheckpoint(s.jobPath(id, ".ckpt")); err == nil {
		st.Ordered = snap.Ordered
		st.CheckpointSeq = snap.Seq
	} else if !errors.Is(err, os.ErrNotExist) {
		st.Error = "snapshot unusable: " + err.Error()
	}
	return st, nil
}

func (s *Server) handleJobResume(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	if s.shedDegraded(w) {
		return
	}
	id := r.PathValue("id")
	if !validJobID(id) {
		s.reject(w, http.StatusBadRequest, "bad job id")
		return
	}

	s.jobsMu.Lock()
	if j, ok := s.jobs[id]; ok {
		st := j.status()
		if st.State == "queued" || st.State == "running" {
			s.jobsMu.Unlock()
			s.reject(w, http.StatusConflict, "job is already "+st.State)
			return
		}
		if st.State == "done" {
			s.jobsMu.Unlock()
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	s.jobsMu.Unlock()

	if data, err := os.ReadFile(s.jobPath(id, ".done")); err == nil {
		// Completed in an earlier process: resume is an idempotent no-op.
		var res QueryResponse
		if err := json.Unmarshal(data, &res); err == nil {
			writeJSON(w, http.StatusOK, JobStatus{ID: id, State: "done", Ordered: res.Ordered, Result: &res})
			return
		}
	}
	specData, err := os.ReadFile(s.jobPath(id, ".job"))
	if err != nil {
		s.reject(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	var spec JobSpec
	if err := json.Unmarshal(specData, &spec); err != nil {
		s.reject(w, http.StatusInternalServerError, "corrupt job spec: "+err.Error())
		return
	}
	var snap *ohminer.CheckpointSnapshot
	switch snap, err = ohminer.ReadCheckpoint(s.jobPath(id, ".ckpt")); {
	case err == nil:
	case errors.Is(err, os.ErrNotExist):
		snap = nil // crashed before the first checkpoint: start over
	default:
		// A corrupt snapshot is refused, not silently restarted: the
		// operator decides whether to delete it and redo the work.
		s.reject(w, http.StatusUnprocessableEntity, "snapshot unusable: "+err.Error())
		return
	}

	s.jobsMu.Lock()
	if j, ok := s.jobs[id]; ok {
		if st := j.state; st == "queued" || st == "running" {
			s.jobsMu.Unlock()
			s.reject(w, http.StatusConflict, "job is already "+st)
			return
		}
	}
	j := &job{id: id, spec: spec, state: "queued", resumes: 1}
	if prev, ok := s.jobs[id]; ok {
		prev.mu.Lock()
		j.resumes = prev.resumes + 1
		prev.mu.Unlock()
	}
	if snap != nil {
		j.seq = snap.Seq
		j.ordered = snap.Ordered
	}
	s.jobs[id] = j
	s.jobsMu.Unlock()

	s.jobsResumed.Add(1)
	s.jobWG.Add(1)
	go s.runJob(j, snap)
	writeJSON(w, http.StatusAccepted, j.status())
}

// runJob executes one job to its next boundary: completion, failure, or
// interruption (server Abort → the engine's cancellation path, which writes
// a final snapshot so the job stays resumable).
func (s *Server) runJob(j *job, snap *ohminer.CheckpointSnapshot) {
	defer s.jobWG.Done()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopWatch := context.AfterFunc(s.abortCtx, cancel)
	defer stopWatch()

	fail := func(msg string) {
		j.mu.Lock()
		j.state = "failed"
		j.errMsg = msg
		j.mu.Unlock()
	}

	// Jobs respect the same admission semaphore as queries — a restarted
	// server with many resumed jobs must not stampede the CPU.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		j.mu.Lock()
		j.state = "interrupted"
		j.errMsg = "interrupted while queued; resume to continue"
		j.mu.Unlock()
		return
	}
	defer func() { <-s.sem }()

	p, err := ohminer.ParsePattern(j.spec.Pattern)
	if err != nil {
		fail("bad pattern: " + err.Error())
		return
	}
	if err := engine.CheckVariant(j.spec.Variant); err != nil {
		fail(err.Error())
		return
	}
	limit := j.spec.Limit
	if s.cfg.MaxLimit > 0 && (limit == 0 || limit > s.cfg.MaxLimit) {
		limit = s.cfg.MaxLimit
	}
	opts := []ohminer.Option{
		ohminer.WithWorkers(s.cfg.Workers),
		ohminer.WithLimit(limit),
		ohminer.WithCheckpoint(ohminer.NewCheckpointFileSink(s.jobPath(j.id, ".ckpt")), s.cfg.CheckpointEvery),
	}
	if s.cfg.debugOnEmbedding != nil {
		opts = append(opts, ohminer.WithEmbeddings(s.cfg.debugOnEmbedding))
	}

	j.mu.Lock()
	j.state = "running"
	j.mu.Unlock()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	var res ohminer.Result
	if snap != nil {
		res, err = s.sess.ResumeContext(ctx, p, snap, opts...)
	} else {
		res, err = s.sess.MineContext(ctx, p, opts...)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	j.stats = res.Stats
	j.ordered = res.Ordered
	j.seq += res.Stats.Checkpoints
	switch {
	case ctx.Err() != nil:
		// Abort mid-run: the engine snapshotted the frontier on the way
		// out, so the job resumes (here or after a restart) exactly where
		// it stopped.
		j.state = "interrupted"
		j.errMsg = "interrupted by server shutdown; resume to continue"
	case err != nil:
		j.state = "failed"
		j.errMsg = err.Error()
	default:
		out := &QueryResponse{
			Ordered:       res.Ordered,
			Unique:        res.Unique,
			Automorphisms: res.Automorphisms,
			Truncated:     res.Truncated,
			ElapsedMS:     float64(res.Elapsed) / float64(time.Millisecond),
		}
		data, merr := json.Marshal(out)
		if merr == nil {
			merr = writeFileAtomic(s.jobPath(j.id, ".done"), append(data, '\n'))
		}
		if merr != nil {
			j.state = "failed"
			j.errMsg = "persist result: " + merr.Error()
			return
		}
		j.state = "done"
		j.result = out
		// The rolling snapshot has served its purpose; stray files would
		// only confuse a later resume.
		os.Remove(s.jobPath(j.id, ".ckpt"))
	}
}

// DrainJobs aborts nothing by itself: call Abort first, then DrainJobs to
// wait (bounded by ctx) until every job goroutine has unwound through the
// engine's cancellation path and written its final snapshot. Returns nil
// when all jobs drained, ctx.Err() otherwise.
func (s *Server) DrainJobs(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
