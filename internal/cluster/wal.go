// Coordinator durability: a write-ahead log plus periodic snapshot make the
// lease/queue state survive a coordinator crash (ROADMAP item 3).
//
// Layout under Config.Dir:
//
//	wal.log    — 8-byte header (magic "OHMW", version), then a sequence of
//	             records framed [u32 len][JSON payload][u32 CRC-32C(payload)]
//	             (little-endian, same Castagnoli polynomial as internal/crcio).
//	state.ohms — the compacted snapshot: 8-byte header (magic "OHMS",
//	             version), JSON walState, u32 CRC-32C over everything before
//	             it. Written atomically (temp + fsync + rename), so it is
//	             either the old snapshot or the new one, never torn.
//
// Recovery is snapshot ∘ log: load state.ohms if present, then apply every
// wal.log record whose sequence number is beyond the snapshot's. Sequence
// fencing makes compaction crash-safe — if the process dies after the
// snapshot rename but before the log truncate, replay sees records the
// snapshot already contains and skips them by Seq. A short or torn final
// record (a crash mid-append) is tolerated: the valid prefix is kept and the
// tail truncated, exactly the checkpoint-resume contract. A CRC mismatch on
// a *complete* record is real corruption and refuses startup with ErrCorrupt
// rather than silently mining from a wrong state.
//
// Durability discipline: records that gate an external acknowledgement
// (admit, grant, report) are fsync'd before the coordinator acts on them, and
// the records behind one acknowledgement — a merged report and the next lease
// riding on its ack — go down as one append: their frames in one Write, then
// one fsync. A torn append therefore keeps a prefix of its frames in order
// (the report without the grant, never the grant without the report). A
// background flusher syncs the rest and, while the WAL is failing (disk
// full, I/O error), probes it with no-op records so the coordinator heals
// itself the moment the disk comes back. While degraded, admission sheds
// with 503 + Retry-After instead of accepting work that can't be made
// durable.
//
// Compaction is driven by log size: once wal.log passes walCompactBytes the
// next job completion folds the state into the snapshot and truncates the
// log, so a stream of short jobs pays for a snapshot of all jobs once per
// ~64 KiB of records, not once per job.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ohminer/internal/crcio"
)

const (
	walMagic         = 0x4f484d57 // "OHMW"
	walVersion       = 1
	stateMagic       = 0x4f484d53 // "OHMS"
	stateVersion     = 1
	walHdrLen        = 8
	walFrameOverhead = 8 // u32 length prefix + u32 CRC trailer
	// maxWALRecord bounds a single record payload; anything larger mid-file
	// is corruption, not a record (matches the report body cap).
	maxWALRecord = maxTaskBody

	// walCompactBytes is the log size past which a job completion compacts.
	walCompactBytes = 64 << 10

	walFile   = "wal.log"
	stateFile = "state.ohms"
)

// ErrCorrupt marks coordinator durable state whose checksum or structure is
// invalid beyond the tolerated torn tail. Startup refuses to proceed on it:
// mining from a silently wrong lease state would double- or under-count.
var ErrCorrupt = errors.New("cluster: corrupt coordinator WAL")

// errWALClosed is returned by appends after close/kill.
var errWALClosed = errors.New("cluster: WAL closed")

// errWALWedged is the sticky failure after a torn append could not be rolled
// back: the on-disk tail is garbage, so any further append would turn a
// tolerable torn-tail into mid-file corruption.
var errWALWedged = errors.New("cluster: WAL wedged by an unrecoverable torn write")

// WAL record types.
const (
	recAdmit  = "admit"  // job accepted (spec is replayed through the compiler)
	recGrant  = "grant"  // lease handed out: task epoch bumped, fenced
	recReport = "report" // worker report merged (includes remainder spill)
	recFinish = "finish" // job reached done/failed
	recProbe  = "probe"  // no-op degraded-mode health probe; never replayed
)

// walRecord is one logged state transition. Exactly one of the optional
// payloads is set, keyed by T.
type walRecord struct {
	Seq uint64 `json:"seq"`
	T   string `json:"t"`

	Job     string   `json:"job,omitempty"`
	Spec    *JobSpec `json:"spec,omitempty"`     // admit
	GraphFP uint64   `json:"graph_fp,omitempty"` // admit: dataset the job was admitted against
	JobSeq  uint64   `json:"job_seq,omitempty"`  // admit: auto-id counter at admission

	Task   int    `json:"task,omitempty"`
	Epoch  uint64 `json:"epoch,omitempty"`
	Worker string `json:"worker,omitempty"` // grant

	Report *Report `json:"report,omitempty"` // report

	State   string `json:"state,omitempty"` // finish: done | failed
	Err     string `json:"err,omitempty"`
	Elapsed int64  `json:"elapsed_ns,omitempty"`
}

// walState is the compacted snapshot of everything the coordinator must
// remember across a crash. Worker liveness is deliberately absent: every
// lease is force-expired on recovery anyway.
type walState struct {
	GraphFP uint64   `json:"graph_fp"`
	JobSeq  uint64   `json:"job_seq"`
	LastSeq uint64   `json:"last_seq"` // records with Seq <= LastSeq are folded in
	Jobs    []walJob `json:"jobs"`
}

type walJob struct {
	ID        string    `json:"id"`
	Spec      JobSpec   `json:"spec"`
	State     string    `json:"state"`
	Err       string    `json:"err,omitempty"`
	Ordered   uint64    `json:"ordered"`
	Stats     []uint64  `json:"stats,omitempty"`
	CreatedNS int64     `json:"created_ns"`
	ElapsedNS int64     `json:"elapsed_ns,omitempty"`
	Queue     []int     `json:"queue,omitempty"`
	Tasks     []walTask `json:"tasks,omitempty"`
	Reassign  int       `json:"reassign,omitempty"`
	Fenced    int       `json:"fenced,omitempty"`
	Spilled   int       `json:"spilled,omitempty"`
	Failures  int       `json:"failures,omitempty"`
}

type walTask struct {
	State    string `json:"state"`
	Epoch    uint64 `json:"epoch"`
	Worker   string `json:"worker,omitempty"`
	Ordered  uint64 `json:"ordered,omitempty"`
	Failures int    `json:"failures,omitempty"`
	Spilled  bool   `json:"spilled,omitempty"`
	Cands    int    `json:"cands"`
	// Frontier is the task's OHMC-encoded candidate snapshot (empty for done
	// tasks — their work is already merged).
	Frontier []byte `json:"frontier,omitempty"`
}

// appendFrame appends rec to buf as one WAL frame: [u32 len][payload][u32 crc].
func appendFrame(buf []byte, rec *walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crcio.Checksum(payload)), nil
}

// wal owns the coordinator's durable files. All methods are safe for
// concurrent use; the flusher goroutine runs until close/kill.
type wal struct {
	dir string

	mu      sync.Mutex
	f       *os.File  // guarded by mu
	w       io.Writer // guarded by mu — f, or a fault-injection wrapper over it
	off     int64     // guarded by mu — end offset of the last intact append
	seq     uint64    // guarded by mu — last sequence number handed out
	dirty   bool      // guarded by mu — bytes written since the last fsync
	err     error     // guarded by mu — last append/sync failure (nil = healthy)
	wedged  bool      // guarded by mu — torn tail could not be rolled back
	closed  bool      // guarded by mu
	records int64     // guarded by mu — appends (one Write each) this process lifetime
	bytes   int64     // guarded by mu
	compact int64     // guarded by mu — compactions this process lifetime

	started     bool          // flusher launched (guards the stop handshake)
	done        chan struct{} // closed to stop the flusher
	flusherDone chan struct{} // closed by the flusher on exit
}

// openWAL loads dir's durable state: the snapshot (nil if absent) and every
// intact log record, truncating a torn tail. The returned wal is ready for
// appends; call start to launch the background flusher.
func openWAL(dir string, wrap func(io.Writer) io.Writer) (*wal, *walState, []walRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("cluster: create WAL dir: %w", err)
	}
	state, err := loadState(filepath.Join(dir, stateFile))
	if err != nil {
		return nil, nil, nil, err
	}
	path := filepath.Join(dir, walFile)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, fmt.Errorf("cluster: read WAL: %w", err)
	}
	recs, valid, err := scanWAL(data)
	if err != nil {
		return nil, nil, nil, err
	}
	if valid < int64(len(data)) {
		// Torn tail from a crash mid-append: keep the intact prefix.
		if err := os.Truncate(path, valid); err != nil {
			return nil, nil, nil, fmt.Errorf("cluster: truncate torn WAL tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("cluster: open WAL: %w", err)
	}
	w := &wal{
		dir:         dir,
		f:           f,
		off:         valid,
		done:        make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	w.w = io.Writer(f)
	if wrap != nil {
		w.w = wrap(f)
	}
	if valid == 0 {
		// Fresh (or fully truncated) log: write the header eagerly so every
		// later append is exactly one record-frame write.
		var hdr [walHdrLen]byte
		binary.LittleEndian.PutUint32(hdr[0:], walMagic)
		binary.LittleEndian.PutUint32(hdr[4:], walVersion)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("cluster: write WAL header: %w", err)
		}
		w.off = walHdrLen
	}
	// Resume the sequence counter past everything on disk.
	if state != nil {
		w.seq = state.LastSeq
	}
	for i := range recs {
		if recs[i].Seq > w.seq {
			w.seq = recs[i].Seq
		}
	}
	return w, state, recs, nil
}

// scanWAL parses the raw log bytes, returning the intact records and the
// offset where the intact prefix ends. A short tail (crash mid-append) stops
// the scan cleanly; a checksum or structure failure on a complete frame is
// ErrCorrupt.
func scanWAL(data []byte) ([]walRecord, int64, error) {
	if len(data) == 0 {
		return nil, 0, nil
	}
	if len(data) < walHdrLen {
		// Torn header: treat the whole file as a torn tail.
		return nil, 0, nil
	}
	if m := binary.LittleEndian.Uint32(data); m != walMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, m)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != walVersion {
		return nil, 0, fmt.Errorf("cluster: WAL version %d not supported (want %d)", v, walVersion)
	}
	var recs []walRecord
	pos := int64(walHdrLen)
	for pos < int64(len(data)) {
		if pos+4 > int64(len(data)) {
			break // torn length prefix
		}
		n := int64(binary.LittleEndian.Uint32(data[pos:]))
		if pos+walFrameOverhead+n > int64(len(data)) {
			if n <= maxWALRecord {
				break // torn payload/trailer
			}
			// An absurd length that also overruns the file: unparseable tail.
			break
		}
		if n > maxWALRecord {
			return nil, 0, fmt.Errorf("%w: record at offset %d claims %d bytes", ErrCorrupt, pos, n)
		}
		payload := data[pos+4 : pos+4+n]
		crc := binary.LittleEndian.Uint32(data[pos+4+n:])
		if crcio.Checksum(payload) != crc {
			return nil, 0, fmt.Errorf("%w: record checksum mismatch at offset %d", ErrCorrupt, pos)
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil, 0, fmt.Errorf("%w: record decode at offset %d: %v", ErrCorrupt, pos, err)
		}
		recs = append(recs, rec)
		pos += walFrameOverhead + n
	}
	return recs, pos, nil
}

// loadState reads and verifies the compacted snapshot (nil when absent).
func loadState(path string) (*walState, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: read state snapshot: %w", err)
	}
	if len(data) < walHdrLen+4 {
		return nil, fmt.Errorf("%w: state snapshot too short", ErrCorrupt)
	}
	if m := binary.LittleEndian.Uint32(data); m != stateMagic {
		return nil, fmt.Errorf("%w: bad state magic %#x", ErrCorrupt, m)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != stateVersion {
		return nil, fmt.Errorf("cluster: state snapshot version %d not supported (want %d)", v, stateVersion)
	}
	body, trailer := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crcio.Checksum(body) != trailer {
		return nil, fmt.Errorf("%w: state snapshot checksum mismatch", ErrCorrupt)
	}
	var st walState
	if err := json.Unmarshal(body[walHdrLen:], &st); err != nil {
		return nil, fmt.Errorf("%w: state snapshot decode: %v", ErrCorrupt, err)
	}
	return &st, nil
}

// start launches the background flusher: every flushEvery it fsyncs pending
// appends, and while the WAL is degraded it probes with a no-op record so a
// healed disk brings the coordinator back without operator action.
func (w *wal) start(flushEvery time.Duration) {
	if flushEvery <= 0 {
		flushEvery = 250 * time.Millisecond
	}
	w.mu.Lock()
	w.started = true
	w.mu.Unlock()
	go w.flusher(flushEvery)
}

func (w *wal) flusher(every time.Duration) {
	defer close(w.flusherDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-t.C:
		}
		w.mu.Lock()
		switch {
		case w.closed || w.wedged:
		case w.err != nil:
			// Degraded: probe the sink with a no-op record. Success clears
			// w.err inside appendLocked — the self-heal path.
			_ = w.appendLocked(true, &walRecord{T: recProbe})
		case w.dirty:
			if serr := w.f.Sync(); serr != nil {
				w.err = serr
			} else {
				w.dirty = false
			}
		}
		w.mu.Unlock()
	}
}

// append logs recs, in order, as one unit: consecutive sequence numbers,
// their frames in a single Write. With durable set the append is fsync'd
// before returning — required for any record whose effect is acknowledged
// externally.
func (w *wal) append(durable bool, recs ...*walRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(durable, recs...)
}

// appendLocked is append for callers holding w.mu. A failed write is rolled
// back whole (Truncate to the end of the last intact append) so the on-disk
// log never carries a torn frame mid-file; if even the rollback fails the
// WAL wedges permanently. A failed fsync after a successful write degrades
// the WAL but keeps the records — they are in the file and will replay, so
// the in-memory state may (and must) reflect them.
func (w *wal) appendLocked(durable bool, recs ...*walRecord) error {
	if w.closed {
		return errWALClosed
	}
	if w.wedged {
		return errWALWedged
	}
	var buf []byte
	for i, rec := range recs {
		rec.Seq = w.seq + uint64(i) + 1
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			return err
		}
	}
	w.seq += uint64(len(recs))
	n, err := w.w.Write(buf)
	if err != nil {
		if n > 0 {
			if terr := w.f.Truncate(w.off); terr != nil {
				w.wedged = true
				w.err = fmt.Errorf("%w (truncate: %v, after write error: %v)", errWALWedged, terr, err)
				return w.err
			}
		}
		w.err = err
		return err
	}
	w.off += int64(n)
	w.records++
	w.bytes += int64(n)
	w.dirty = true
	if durable {
		if serr := w.f.Sync(); serr != nil {
			// The record reached the file; only its durability is deferred.
			// Degrade (shed new work) but let the caller apply and ack.
			w.err = serr
			return nil
		}
		w.dirty = false
	}
	w.err = nil // a successful append heals a previously degraded WAL
	return nil
}

// degraded returns the sticky failure keeping the WAL from accepting work
// (nil = healthy).
func (w *wal) degraded() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.wedged {
		return errWALWedged
	}
	return w.err
}

// lastSeq reports the most recently assigned record sequence number.
func (w *wal) lastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// wantsCompaction reports whether the log has outgrown walCompactBytes.
func (w *wal) wantsCompaction() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off > walCompactBytes
}

// stats snapshots the durability counters (records, bytes, compactions).
func (w *wal) stats() (records, bytes, compactions int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records, w.bytes, w.compact
}

// compactTo atomically replaces the snapshot with state and truncates the
// log. Crash ordering is safe without coordination: the snapshot rename is
// atomic, and replay skips log records the snapshot already folds in (by
// LastSeq), so dying between rename and truncate only costs dead bytes.
func (w *wal) compactTo(state *walState) error {
	payload, err := json.Marshal(state)
	if err != nil {
		return err
	}
	buf := make([]byte, walHdrLen+len(payload)+4)
	binary.LittleEndian.PutUint32(buf, stateMagic)
	binary.LittleEndian.PutUint32(buf[4:], stateVersion)
	copy(buf[walHdrLen:], payload)
	binary.LittleEndian.PutUint32(buf[walHdrLen+len(payload):], crcio.Checksum(buf[:walHdrLen+len(payload)]))

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errWALClosed
	}
	if w.wedged {
		return errWALWedged
	}
	tmp, err := os.CreateTemp(w.dir, ".state-*")
	if err != nil {
		w.err = err
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, filepath.Join(w.dir, stateFile))
	}
	if err != nil {
		os.Remove(tmpName)
		w.err = err
		return err
	}
	if err := w.f.Truncate(walHdrLen); err != nil {
		// The snapshot landed; a stale log tail is merely wasted bytes
		// (replay skips it by sequence). Keep going.
		w.err = err
		return nil
	}
	w.off = walHdrLen
	w.dirty = false
	w.compact++
	w.err = nil
	return nil
}

// close stops the flusher, syncs, and releases the file.
func (w *wal) close() error {
	w.stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if w.dirty && !w.wedged {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// kill simulates a coordinator crash for tests: the flusher stops and the
// file is abandoned without a final sync. (In-process the page cache cannot
// be dropped, so unsynced records still replay; true torn-tail losses are
// exercised by crafting bytes directly.)
func (w *wal) kill() {
	w.stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.closed {
		w.closed = true
		_ = w.f.Close()
	}
}

// stop halts the flusher goroutine (idempotent; a no-op if start was never
// called, e.g. when recovery failed before the coordinator went live).
func (w *wal) stop() {
	w.mu.Lock()
	started := w.started
	select {
	case <-w.done:
	default:
		close(w.done)
	}
	w.mu.Unlock()
	if started {
		<-w.flusherDone
	}
}
