// Package serve implements the ohmserve HTTP query service: a JSON query
// endpoint over a plan-cached ohminer.Session, with per-request
// timeout/limit mapping, concurrency admission control, expvar metrics,
// pprof, and cooperative drain for graceful shutdown. Long runs are not
// queries: /jobs is served by the mounted cluster coordinator
// (Config.Cluster), whose workers — in ohmserve -checkpoint-dir, one in the
// server's own process — mine a job to completion across restarts.
//
// The design follows the deployment the paper's API discussion envisions
// (and HGMatch argues for): the store is built once, queries arrive
// continuously, plans are cached per pattern, and every query runs with
// bounded resources — a worker budget, a deadline, an embedding limit, and
// a slot in the admission semaphore. Cancellation reaches the mining
// workers through Session.MineContext, so a disconnected client or a
// draining server stops burning CPU within one candidate check.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ohminer"
	"ohminer/internal/cluster"
	"ohminer/internal/engine"
)

// Config bounds the per-query and per-server resources.
type Config struct {
	// MaxConcurrent is the admission-semaphore width: at most this many
	// queries mine at once, later arrivals wait their turn (bounded by
	// their own timeout). ≤0 selects 2×GOMAXPROCS.
	MaxConcurrent int
	// DefaultTimeout applies to requests that carry no timeout_ms
	// (0 = 10s). The timeout maps to ohminer.WithDeadline: an expired query
	// returns its partial counts marked truncated, not an error.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout (0 = 2m).
	MaxTimeout time.Duration
	// MaxLimit caps the per-request embedding limit and is applied to
	// requests that ask for no limit at all (0 = uncapped).
	MaxLimit uint64
	// Workers bounds the engine worker count per query (0 = engine
	// default, i.e. GOMAXPROCS).
	Workers int
	// DebugDelay injects artificial latency before each query starts
	// mining. Test hook for the graceful-drain smoke test; zero in
	// production.
	DebugDelay time.Duration
	// Cluster, when set, mounts the distributed-mining coordinator's
	// endpoints (/cluster, /cluster/jobs, the worker lease protocol, and
	// /jobs, their alias) on this server — ohmserve's -cluster and
	// -checkpoint-dir modes. Nil serves queries and streams only, and /jobs
	// answers 503.
	Cluster *cluster.Coordinator
	// StreamDir enables the streams subsystem (POST /streams): stream
	// specs, base snapshots and per-batch logs are persisted there, so every
	// acknowledged batch survives a SIGKILL. Empty disables /streams.
	StreamDir string
	// StreamBufEvents bounds each event subscriber's buffer; a subscriber
	// that falls further behind has events dropped (and counted) rather
	// than stalling batch application (0 = 64).
	StreamBufEvents int
	// StreamRing bounds the per-query event ring kept for reconnect
	// backfill (?after=N) (0 = 256).
	StreamRing int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.StreamBufEvents <= 0 {
		c.StreamBufEvents = 64
	}
	if c.StreamRing <= 0 {
		c.StreamRing = 256
	}
	return c
}

// Server answers pattern-mining queries over one Session. Create with New;
// mount Handler on an http.Server.
type Server struct {
	sess *ohminer.Session
	cfg  Config
	sem  chan struct{}

	// abortCtx is cancelled by Abort to hard-stop every in-flight query
	// (the escalation path when graceful drain exceeds its budget).
	abortCtx  context.Context
	abortStop context.CancelFunc

	// drainCtx is cancelled by DisconnectStreams to close long-lived
	// event subscriptions (SSE, parked long-polls). These would otherwise
	// hold http.Server.Shutdown open forever, so the binary registers
	// DisconnectStreams via RegisterOnShutdown.
	drainCtx  context.Context
	drainStop context.CancelFunc

	queries     expvar.Int // admitted queries
	rejected    expvar.Int // refused before mining (bad request, full queue)
	errors      expvar.Int // queries that failed after admission
	truncations expvar.Int // truncated results served
	inFlight    expvar.Int // queries currently mining
	vars        *expvar.Map

	// Streams subsystem (enabled by Config.StreamDir; see stream.go).
	streamMu  sync.Mutex
	streams   map[string]*srvStream // guarded by streamMu
	streamSeq atomic.Uint64

	streamsCreated       expvar.Int // streams created via POST /streams
	streamsReloaded      expvar.Int // streams lazily reloaded from StreamDir
	streamBatches        expvar.Int // batches applied (fresh, counted once)
	streamReplays        expvar.Int // stale batches acked idempotently
	streamEvents         expvar.Int // delta events delivered to subscribers
	streamDropped        expvar.Int // delta events dropped (slow consumers)
	streamSubs           expvar.Int // current event subscribers
	streamDurabilityErrs expvar.Int // batches applied but not yet durable
}

// New creates a Server over the session. The first Server created in a
// process also publishes its metrics in the global expvar namespace under
// "ohmserve"; later instances (tests) keep their metrics reachable through
// their own /debug/vars handler.
func New(sess *ohminer.Session, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		sess:    sess,
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		streams: map[string]*srvStream{},
	}
	s.abortCtx, s.abortStop = context.WithCancel(context.Background())
	s.drainCtx, s.drainStop = context.WithCancel(context.Background())
	m := new(expvar.Map).Init()
	m.Set("queries", &s.queries)
	m.Set("rejected", &s.rejected)
	m.Set("errors", &s.errors)
	m.Set("truncations", &s.truncations)
	m.Set("in_flight", &s.inFlight)
	m.Set("streams", &s.streamsCreated)
	m.Set("streams_reloaded", &s.streamsReloaded)
	m.Set("stream_batches", &s.streamBatches)
	m.Set("stream_batches_replayed", &s.streamReplays)
	m.Set("stream_events", &s.streamEvents)
	m.Set("stream_events_dropped", &s.streamDropped)
	m.Set("stream_subscribers", &s.streamSubs)
	m.Set("stream_durability_errors", &s.streamDurabilityErrs)
	m.Set("cache_hits", expvar.Func(func() any { h, _ := sess.CacheStats(); return h }))
	m.Set("cache_misses", expvar.Func(func() any { _, mi := sess.CacheStats(); return mi }))
	m.Set("cached_plans", expvar.Func(func() any { return sess.CachedPlans() }))
	m.Set("result_cache_hits", expvar.Func(func() any { h, _ := sess.ResultCacheStats(); return h }))
	m.Set("result_cache_misses", expvar.Func(func() any { _, mi := sess.ResultCacheStats(); return mi }))
	m.Set("cached_results", expvar.Func(func() any { return sess.CachedResults() }))
	s.vars = m
	publish(m)
	return s
}

var publishMu sync.Mutex

// publish registers m as the process-global "ohmserve" expvar exactly once
// (expvar.Publish panics on duplicates, and tests create many Servers).
func publish(m *expvar.Map) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get("ohmserve") == nil {
		expvar.Publish("ohmserve", m)
	}
}

// Abort cancels every in-flight query. The graceful path is
// http.Server.Shutdown, which stops accepting and waits for handlers to
// finish (each bounded by its own deadline); Abort is the escalation when
// that wait exceeds the drain budget.
func (s *Server) Abort() { s.abortStop() }

// DisconnectStreams closes every open event subscription (SSE streams and
// parked long-polls). Subscribers are push-only and lossless to reconnect
// (?after=N backfills), so this is safe to call at the start of a graceful
// shutdown — typically via http.Server.RegisterOnShutdown — where the open
// connections would otherwise hold Shutdown past its drain budget.
func (s *Server) DisconnectStreams() { s.drainStop() }

// CloseStreams closes every loaded stream's files, after each one's batch in
// flight; call it once the HTTP server has drained. Everything acknowledged
// is already on disk.
func (s *Server) CloseStreams() error {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	var first error
	for id, st := range s.streams {
		st.mu.Lock()
		if err := st.m.Close(); err != nil && first == nil {
			first = err
		}
		st.mu.Unlock()
		delete(s.streams, id)
	}
	return first
}

// Session returns the underlying query session.
func (s *Server) Session() *ohminer.Session { return s.sess }

// Handler returns the service mux: POST /query, the streams endpoints
// (POST /streams, GET /streams/{id}, POST /streams/{id}/batches,
// POST /streams/{id}/queries, GET /streams/{id}/queries/{qid}/events —
// 503 unless Config.StreamDir is set), the cluster coordinator endpoints
// when Config.Cluster is set (GET /cluster, POST /cluster/jobs, the worker
// lease protocol, and the jobs endpoints GET /jobs, POST /jobs,
// GET /jobs/{id}, POST /jobs/{id}/resume — 503 without a coordinator),
// GET /healthz, GET /debug/vars (expvar), and the net/http/pprof endpoints
// under /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("POST /streams", s.handleStreamCreate)
	mux.HandleFunc("GET /streams/{id}", s.handleStreamStatus)
	mux.HandleFunc("POST /streams/{id}/batches", s.handleStreamBatch)
	mux.HandleFunc("POST /streams/{id}/queries", s.handleStreamQueryCreate)
	mux.HandleFunc("GET /streams/{id}/queries/{qid}/events", s.handleStreamEvents)
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.Register(mux)
	} else {
		mux.HandleFunc("/jobs", s.handleJobsDisabled)
		mux.HandleFunc("/jobs/", s.handleJobsDisabled)
	}
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleJobsDisabled(w http.ResponseWriter, r *http.Request) {
	s.reject(w, http.StatusServiceUnavailable, "jobs disabled: server started without -checkpoint-dir or -cluster")
}

// ErrLegacyJobDir marks a job directory holding the per-job files
// (<id>.job, <id>.ckpt, <id>.done) of the file-per-job subsystem /jobs ran on
// before it became the cluster coordinator's. Such jobs are refused, not
// adopted: finish them with the ohmserve that wrote them, or move the files
// away.
var ErrLegacyJobDir = errors.New("job directory holds jobs of the older file-per-job layout")

// CheckJobDir refuses dir with an error wrapping ErrLegacyJobDir, naming the
// files, if it holds any legacy job file; a missing dir passes.
func CheckJobDir(dir string) error {
	var legacy []string
	for _, ext := range []string{"*.job", "*.ckpt", "*.done"} {
		m, _ := filepath.Glob(filepath.Join(dir, ext)) // the patterns are well-formed
		legacy = append(legacy, m...)
	}
	if len(legacy) == 0 {
		return nil
	}
	sort.Strings(legacy)
	return fmt.Errorf("%w: %s; finish those jobs with the ohmserve that wrote them, or move the files away",
		ErrLegacyJobDir, strings.Join(legacy, ", "))
}

// QueryRequest is the JSON body of POST /query.
type QueryRequest struct {
	// Pattern is the pattern literal, e.g. "0 1 2; 2 3 4".
	Pattern string `json:"pattern"`
	// Variant is recognised only to be refused (engine.CheckVariant): ""
	// and "OHMiner" pass, a baseline's name is a 422.
	Variant string `json:"variant,omitempty"`
	// Limit stops the query after this many ordered embeddings (0 = the
	// server's MaxLimit, which may be unlimited).
	Limit uint64 `json:"limit,omitempty"`
	// TimeoutMS bounds the mining time; an expired query returns partial
	// counts marked truncated. 0 = the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// DataAwareOrder is accepted and ignored: the server always runs the
	// matching order it chooses by cost on its store. Kept so bodies written
	// for the selectivity-first order it replaced still decode.
	DataAwareOrder bool `json:"data_aware_order,omitempty"`
}

// QueryResponse is the JSON body of a successful query.
type QueryResponse struct {
	Ordered       uint64  `json:"ordered"`
	Unique        uint64  `json:"unique"`
	Automorphisms int     `json:"automorphisms"`
	Truncated     bool    `json:"truncated"`
	ElapsedMS     float64 `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) reject(w http.ResponseWriter, code int, msg string) {
	s.rejected.Add(1)
	writeJSON(w, code, errorResponse{Error: msg})
}

// shedDegraded refuses work-accepting requests (503 + Retry-After) while an
// attached durable cluster coordinator cannot persist state — no layer of
// the service should accept work whose bookkeeping would be lost by a crash.
// Reports whether the request was shed.
func (s *Server) shedDegraded(w http.ResponseWriter) bool {
	if s.cfg.Cluster == nil || !s.cfg.Cluster.Degraded() {
		return false
	}
	s.rejected.Add(1)
	s.cfg.Cluster.RejectDegraded(w, nil)
	return true
}

// decodeStrict parses exactly one JSON value from the request body into v:
// unknown fields and trailing garbage (a second JSON value, stray bytes
// after the object) are errors, so a malformed client — e.g. one
// concatenating two requests into one body — gets a 400 instead of a
// silently half-read query.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The response writer owns delivery failures (client gone); nothing
	// useful to do with an encode error here.
	_ = enc.Encode(v)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.reject(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.shedDegraded(w) {
		return
	}
	var req QueryRequest
	if err := decodeStrict(w, r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Pattern == "" {
		s.reject(w, http.StatusBadRequest, "missing \"pattern\"")
		return
	}
	p, err := ohminer.ParsePattern(req.Pattern)
	if err != nil {
		s.reject(w, http.StatusBadRequest, "bad pattern: "+err.Error())
		return
	}
	if err := engine.CheckVariant(req.Variant); err != nil {
		s.reject(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	limit := req.Limit
	if s.cfg.MaxLimit > 0 && (limit == 0 || limit > s.cfg.MaxLimit) {
		limit = s.cfg.MaxLimit
	}
	opts := []ohminer.Option{
		ohminer.WithDeadline(timeout),
		ohminer.WithLimit(limit),
		ohminer.WithWorkers(s.cfg.Workers),
	}

	// One context covers the whole query: the client disconnecting, the
	// admission wait, the mining run, and a server Abort all cancel it.
	// The timeout itself is NOT on this context — it maps to
	// ohminer.WithDeadline, whose own timeout context around the engine
	// run makes an expired query answer with truncated partial counts.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopWatch := context.AfterFunc(s.abortCtx, cancel)
	defer stopWatch()

	// Admission: wait for a mining slot, but never longer than the query's
	// own time budget — a saturated server sheds load instead of queueing
	// unboundedly.
	admit := time.NewTimer(timeout)
	defer admit.Stop()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.reject(w, http.StatusServiceUnavailable, "cancelled while queued")
		return
	case <-admit.C:
		s.reject(w, http.StatusServiceUnavailable, "server saturated: admission queue timed out")
		return
	}
	defer func() { <-s.sem }()

	s.queries.Add(1)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	if s.cfg.DebugDelay > 0 {
		delay := time.NewTimer(s.cfg.DebugDelay)
		select {
		case <-delay.C:
		case <-ctx.Done():
		}
		delay.Stop()
	}

	res, err := s.sess.MineContext(ctx, p, opts...)
	switch {
	case ctx.Err() != nil:
		// Client gone or server aborting: the partial result has no
		// recipient left to trust it.
		s.errors.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "query cancelled"})
		return
	case errors.Is(err, ohminer.ErrWorkerPanic):
		s.errors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	case err != nil:
		// Compile failure, label mismatch, …: the query, not the server,
		// is at fault.
		s.errors.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	if res.Truncated {
		s.truncations.Add(1)
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		Ordered:       res.Ordered,
		Unique:        res.Unique,
		Automorphisms: res.Automorphisms,
		Truncated:     res.Truncated,
		ElapsedMS:     float64(res.Elapsed) / float64(time.Millisecond),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.sess.Store().Hypergraph()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"vertices":     h.NumVertices(),
		"edges":        h.NumEdges(),
		"cached_plans": s.sess.CachedPlans(),
		"in_flight":    s.inFlight.Value(),
	})
}

// handleVars serves the expvar page off the server's own metric map, so
// every Server instance (not just the first one in the process) exposes
// live numbers; the standard globals (memstats, cmdline, and the published
// "ohmserve" map) follow.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\n%q: %s", "ohmserve", s.vars.String())
	expvar.Do(func(kv expvar.KeyValue) {
		if kv.Key == "ohmserve" {
			return
		}
		fmt.Fprintf(w, ",\n%q: %s", kv.Key, kv.Value.String())
	})
	fmt.Fprintf(w, "\n}\n")
}
