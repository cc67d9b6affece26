package serve

// The streams subsystem: push delivery for the streaming miner. A stream is
// a server-side stream.Miner fed by sequenced batches over HTTP; standing
// queries registered on it emit one delta event per applied batch, pushed
// to subscribers over Server-Sent Events (with a long-poll fallback for
// clients that cannot hold an SSE connection). Everything needed to restart
// lives under StreamDir:
//
//	<id>.stream    the stream spec — written at creation (durable.WriteFile)
//	<id>.ohmt      the CRC-framed base snapshot — replaced atomically on
//	               registration and when the log outgrows it
//	<id>.ohmt.log  one fsynced record per batch applied since the base
//
// On restart a stream is lazily reloaded from base and log on first touch;
// feeders replay their batch log from their last acked seq and the miner's
// ErrStale answers make the replay idempotent (exactly-once counting).
//
// Delivery is at-most-once per subscriber with bounded buffering: a
// subscriber that cannot keep up has events dropped (counted, surfaced in
// expvar and on the next event's resync hint) rather than back-pressuring
// the apply path. The per-query event ring lets reconnecting subscribers
// backfill from their last seen event seq (?after=N) when the gap is
// shorter than the ring.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"ohminer"
	"ohminer/internal/durable"
	"ohminer/internal/engine"
	"ohminer/internal/stream"
)

// StreamSpec is the persisted description of a stream and the body of
// POST /streams (plus the optional "id").
type StreamSpec struct {
	// ID names the stream (same charset as job IDs). Empty picks one.
	ID string `json:"id,omitempty"`
	// NumVertices fixes the vertex universe.
	NumVertices int `json:"num_vertices"`
	// Window auto-retires hyperedges this many epochs after their last
	// add/refresh (0 = no expiry).
	Window uint64 `json:"window,omitempty"`
}

// StreamStatus is the JSON body of GET /streams/{id}.
type StreamStatus struct {
	ID           string                    `json:"id"`
	Epoch        uint64                    `json:"epoch"`
	LiveEdges    int                       `json:"live_edges"`
	RetiredEdges int                       `json:"retired_edges"`
	Queries      []ohminer.StreamQueryInfo `json:"queries,omitempty"`
}

// streamBatchRequest is the body of POST /streams/{id}/batches.
type streamBatchRequest struct {
	// Seq sequences the batch for idempotent replay: a batch whose Seq was
	// already applied answers applied=false instead of double-counting.
	// 0 = unsequenced (always applies).
	Seq    uint64     `json:"seq,omitempty"`
	Add    [][]uint32 `json:"add,omitempty"`
	Retire [][]uint32 `json:"retire,omitempty"`
}

// StreamBatchResponse is the JSON body of POST /streams/{id}/batches.
type StreamBatchResponse struct {
	// Applied is false when the batch's Seq was already applied (the
	// feeder replaying after a crash); counts were not touched again.
	Applied bool   `json:"applied"`
	Epoch   uint64 `json:"epoch"`
	// Added/Retired/Expired/Refreshed account hyperedges, not embeddings.
	Added     int  `json:"added"`
	Retired   int  `json:"retired"`
	Expired   int  `json:"expired"`
	Refreshed int  `json:"refreshed"`
	Compacted bool `json:"compacted,omitempty"`
	// Deltas carries each standing query's per-batch embedding delta —
	// the same events pushed to subscribers, inline for feeders that want
	// the ledger without a second connection.
	Deltas []ohminer.StreamDelta `json:"deltas,omitempty"`
}

// streamQueryRequest is the body of POST /streams/{id}/queries.
type streamQueryRequest struct {
	Pattern string `json:"pattern"`
}

// srvStream is one live stream in this process.
type srvStream struct {
	id string

	// mu serializes batch application with event publication so every
	// subscriber observes each query's events in seq order, and guards the
	// rings and subscriber sets.
	mu    sync.Mutex
	m     *ohminer.StreamMiner
	rings map[uint64][]ohminer.StreamDelta   // per-query backfill ring
	subs  map[uint64]map[*streamSub]struct{} // per-query subscribers
}

// streamSub is one event subscriber (SSE connection or long-poll waiter).
type streamSub struct {
	ch      chan ohminer.StreamDelta
	dropped uint64 // events lost to a full buffer; the owning srvStream's mu serializes access
}

// streamDir reports whether the streams subsystem is enabled.
func (s *Server) streamsEnabled() bool { return s.cfg.StreamDir != "" }

func (s *Server) streamPath(id, ext string) string {
	return filepath.Join(s.cfg.StreamDir, id+ext)
}

// streamConfig assembles the miner config for a stream: engine options
// bounded by the server's worker budget, every acknowledged batch durable in
// the stream's files.
func (s *Server) streamConfig(spec StreamSpec) stream.Config {
	return stream.Config{
		NumVertices: spec.NumVertices,
		Window:      spec.Window,
		Engine:      engine.Options{Workers: s.cfg.Workers},
		Snapshot:    &stream.FileSink{Path: s.streamPath(spec.ID, ".ohmt")},
	}
}

// getStream returns the in-memory stream for id, lazily reloading it from
// StreamDir after a restart: the spec names the universe, the base and its
// log (if any) restore epoch, live edges, and every standing query's
// cumulative counters exactly.
func (s *Server) getStream(id string) (*srvStream, error) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if st, ok := s.streams[id]; ok {
		return st, nil
	}
	data, err := os.ReadFile(s.streamPath(id, ".stream"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, errStreamNotFound
		}
		return nil, err
	}
	var spec StreamSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("stream %s: corrupt spec: %w", id, err)
	}
	spec.ID = id
	cfg := s.streamConfig(spec)
	var m *ohminer.StreamMiner
	if _, serr := os.Stat(s.streamPath(id, ".ohmt")); serr == nil {
		m, err = stream.LoadFile(s.streamPath(id, ".ohmt"), cfg)
	} else {
		m, err = stream.NewMiner(cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("stream %s: %w", id, err)
	}
	st := s.installStreamLocked(id, m)
	s.streamsReloaded.Add(1)
	return st, nil
}

// installStreamLocked registers a live stream; callers hold streamMu. Rings
// exist for queries restored from the snapshot so subscriptions work
// immediately (backfill starts empty — events are not durable state).
func (s *Server) installStreamLocked(id string, m *ohminer.StreamMiner) *srvStream {
	st := &srvStream{
		id:    id,
		m:     m,
		rings: map[uint64][]ohminer.StreamDelta{},
		subs:  map[uint64]map[*streamSub]struct{}{},
	}
	for _, q := range m.Queries() {
		st.rings[q.ID] = nil
	}
	s.streams[id] = st
	return st
}

var errStreamNotFound = errors.New("no such stream")

// publish appends each delta to its query's ring and fans it out to
// subscribers; callers hold st.mu. A full subscriber buffer drops the event
// for that subscriber only (accounted) — the apply path never blocks on a
// slow consumer.
func (s *Server) publish(st *srvStream, deltas []ohminer.StreamDelta) {
	ring := s.cfg.StreamRing
	for _, d := range deltas {
		r := append(st.rings[d.QueryID], d)
		if len(r) > ring {
			r = r[len(r)-ring:]
		}
		st.rings[d.QueryID] = r
		for sub := range st.subs[d.QueryID] {
			select {
			case sub.ch <- d:
				s.streamEvents.Add(1)
			default:
				sub.dropped++
				s.streamDropped.Add(1)
			}
		}
	}
}

// subscribe registers a subscriber for qid and returns it with an unsubscribe
// func and the ring backfill of events with Seq > after.
func (st *srvStream) subscribe(qid, after uint64, buf int) (*streamSub, []ohminer.StreamDelta, func() uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sub := &streamSub{ch: make(chan ohminer.StreamDelta, buf)}
	if st.subs[qid] == nil {
		st.subs[qid] = map[*streamSub]struct{}{}
	}
	st.subs[qid][sub] = struct{}{}
	var backfill []ohminer.StreamDelta
	for _, d := range st.rings[qid] {
		if d.Seq > after {
			backfill = append(backfill, d)
		}
	}
	unsub := func() uint64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		delete(st.subs[qid], sub)
		return sub.dropped
	}
	return sub, backfill, unsub
}

func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	if !s.streamsEnabled() {
		s.reject(w, http.StatusServiceUnavailable, "streams disabled: start the server with -stream-dir")
		return
	}
	var spec StreamSpec
	if err := decodeStrict(w, r, &spec); err != nil {
		s.reject(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if spec.ID == "" {
		spec.ID = fmt.Sprintf("stream-%d", s.streamSeq.Add(1))
	}
	if !validStreamID(spec.ID) {
		s.reject(w, http.StatusBadRequest, "bad stream id (letters, digits, '-', '_'; <=64 chars)")
		return
	}
	if spec.NumVertices <= 0 {
		s.reject(w, http.StatusBadRequest, "num_vertices must be positive")
		return
	}
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if _, ok := s.streams[spec.ID]; ok {
		s.reject(w, http.StatusConflict, "stream exists: "+spec.ID)
		return
	}
	if _, err := os.Stat(s.streamPath(spec.ID, ".stream")); err == nil {
		s.reject(w, http.StatusConflict, "stream exists on disk: "+spec.ID)
		return
	}
	m, err := stream.NewMiner(s.streamConfig(spec))
	if err != nil {
		s.reject(w, http.StatusBadRequest, err.Error())
		return
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err == nil {
		err = durable.WriteFile(s.streamPath(spec.ID, ".stream"), append(data, '\n'))
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "persist spec: " + err.Error()})
		return
	}
	s.installStreamLocked(spec.ID, m)
	s.streamsCreated.Add(1)
	writeJSON(w, http.StatusCreated, StreamStatus{ID: spec.ID})
}

func (s *Server) handleStreamStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupStream(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, StreamStatus{
		ID:           st.id,
		Epoch:        st.m.Epoch(),
		LiveEdges:    st.m.LiveEdges(),
		RetiredEdges: st.m.RetiredEdges(),
		Queries:      st.m.Queries(),
	})
}

// lookupStream resolves {id} or answers the request itself.
func (s *Server) lookupStream(w http.ResponseWriter, r *http.Request) (*srvStream, bool) {
	if !s.streamsEnabled() {
		s.reject(w, http.StatusServiceUnavailable, "streams disabled: start the server with -stream-dir")
		return nil, false
	}
	id := r.PathValue("id")
	if !validStreamID(id) {
		s.reject(w, http.StatusBadRequest, "bad stream id")
		return nil, false
	}
	st, err := s.getStream(id)
	if errors.Is(err, errStreamNotFound) {
		s.reject(w, http.StatusNotFound, "no such stream: "+id)
		return nil, false
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return nil, false
	}
	return st, true
}

func (s *Server) handleStreamBatch(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupStream(w, r)
	if !ok {
		return
	}
	var req streamBatchRequest
	if err := decodeStrict(w, r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	st.mu.Lock()
	res, err := st.m.ApplyBatch(ohminer.StreamBatch{Seq: req.Seq, Add: req.Add, Retire: req.Retire})
	switch {
	case errors.Is(err, stream.ErrStale):
		// Feeder replay after a crash: already counted (and the miner has
		// re-confirmed durability before answering) — idempotent ack.
		epoch := st.m.Epoch()
		st.mu.Unlock()
		s.streamReplays.Add(1)
		writeJSON(w, http.StatusOK, StreamBatchResponse{Applied: false, Epoch: epoch})
		return
	case errors.Is(err, stream.ErrGap):
		st.mu.Unlock()
		s.reject(w, http.StatusConflict, err.Error())
		return
	case err != nil && res != nil:
		// Applied in memory but the snapshot write failed: refuse the ack
		// so the feeder retries; the retry answers ErrStale only after the
		// miner has healed durability.
		st.mu.Unlock()
		s.streamDurabilityErrs.Add(1)
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "batch applied but not durable, retry same seq: " + err.Error()})
		return
	case err != nil:
		st.mu.Unlock()
		s.reject(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.publish(st, res.Deltas)
	st.mu.Unlock()
	s.streamBatches.Add(1)
	writeJSON(w, http.StatusOK, StreamBatchResponse{
		Applied:   true,
		Epoch:     res.Epoch,
		Added:     res.Added,
		Retired:   res.Retired,
		Expired:   res.Expired,
		Refreshed: res.Refreshed,
		Compacted: res.Compacted,
		Deltas:    res.Deltas,
	})
}

func (s *Server) handleStreamQueryCreate(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupStream(w, r)
	if !ok {
		return
	}
	var req streamQueryRequest
	if err := decodeStrict(w, r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	p, err := ohminer.ParsePattern(req.Pattern)
	if err != nil {
		s.reject(w, http.StatusBadRequest, "bad pattern: "+err.Error())
		return
	}
	st.mu.Lock()
	info, err := st.m.RegisterQuery(p)
	if err == nil && st.rings[info.ID] == nil {
		st.rings[info.ID] = nil
	}
	st.mu.Unlock()
	if err != nil {
		s.reject(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	code := http.StatusCreated
	if info.Existing {
		// An isomorphic pattern is already standing; its events answer
		// this registration too.
		code = http.StatusOK
	}
	writeJSON(w, code, info)
}

// streamEventsEnvelope is the long-poll response body.
type streamEventsEnvelope struct {
	Events []ohminer.StreamDelta `json:"events"`
	// Dropped counts events lost to this subscriber's buffer since it
	// connected; a non-zero value tells the client its cumulative view
	// needs a resync from GET /streams/{id} totals.
	Dropped uint64 `json:"dropped,omitempty"`
}

func (s *Server) handleStreamEvents(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupStream(w, r)
	if !ok {
		return
	}
	qid, err := strconv.ParseUint(r.PathValue("qid"), 10, 64)
	if err != nil {
		s.reject(w, http.StatusBadRequest, "bad query id")
		return
	}
	if _, ok := st.m.Query(qid); !ok {
		s.reject(w, http.StatusNotFound, "no such query")
		return
	}
	var after uint64
	if v := r.URL.Query().Get("after"); v != "" {
		if after, err = strconv.ParseUint(v, 10, 64); err != nil {
			s.reject(w, http.StatusBadRequest, "bad after")
			return
		}
	}
	if r.URL.Query().Get("poll") != "" {
		s.longPollEvents(w, r, st, qid, after)
		return
	}
	s.sseEvents(w, r, st, qid, after)
}

// sseEvents streams deltas as Server-Sent Events until the client
// disconnects or the server aborts. Event ids carry the per-query seq so a
// reconnecting client resumes with ?after=<last id>.
func (s *Server) sseEvents(w http.ResponseWriter, r *http.Request, st *srvStream, qid, after uint64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.reject(w, http.StatusNotAcceptable, "streaming unsupported by connection; use ?poll=1")
		return
	}
	sub, backfill, unsub := st.subscribe(qid, after, s.cfg.StreamBufEvents)
	defer unsub()
	s.streamSubs.Add(1)
	defer s.streamSubs.Add(-1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Push the headers out now: a subscriber with no backfill would
	// otherwise sit in the select below with the response still buffered,
	// and the client would never see the connection established.
	fl.Flush()
	writeEvent := func(d ohminer.StreamDelta) bool {
		data, err := json.Marshal(d)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: delta\ndata: %s\n\n", d.Seq, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, d := range backfill {
		if !writeEvent(d) {
			return
		}
	}
	for {
		select {
		case d := <-sub.ch:
			if !writeEvent(d) {
				return
			}
		case <-r.Context().Done():
			return
		case <-s.abortCtx.Done():
			return
		case <-s.drainCtx.Done():
			return
		}
	}
}

// longPollEvents is the fallback for clients that cannot hold an SSE
// connection: return any ring events with Seq > after immediately, else
// wait up to wait_ms (default 10s, capped at 60s) for the next event.
func (s *Server) longPollEvents(w http.ResponseWriter, r *http.Request, st *srvStream, qid, after uint64) {
	wait := 10 * time.Second
	if v := r.URL.Query().Get("wait_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			s.reject(w, http.StatusBadRequest, "bad wait_ms")
			return
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	if wait > time.Minute {
		wait = time.Minute
	}
	sub, backfill, unsub := st.subscribe(qid, after, s.cfg.StreamBufEvents)
	if len(backfill) > 0 {
		dropped := unsub()
		writeJSON(w, http.StatusOK, streamEventsEnvelope{Events: backfill, Dropped: dropped})
		return
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	var events []ohminer.StreamDelta
	select {
	case d := <-sub.ch:
		events = append(events, d)
		// Drain whatever arrived in the same burst.
		for {
			select {
			case d := <-sub.ch:
				events = append(events, d)
				continue
			default:
			}
			break
		}
	case <-timer.C:
	case <-r.Context().Done():
	case <-s.abortCtx.Done():
	case <-s.drainCtx.Done():
	}
	dropped := unsub()
	writeJSON(w, http.StatusOK, streamEventsEnvelope{Events: events, Dropped: dropped})
}

// validStreamID accepts exactly the names that are safe as file stems: no
// separators, no dots, nothing a path traversal could smuggle through.
func validStreamID(id string) bool {
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
