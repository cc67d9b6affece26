package stream

// Durability at O(batch). A FileSink keeps a stream in two files:
//
//	Path      the OHMT base snapshot (snapshot.go), replaced atomically by
//	          durable.WriteFile (temp, one Write, fsync, rename, directory
//	          fsync)
//	Path.log  a durable.Log under magic "OHML": one record per batch applied
//	          since the base, appended with one Write and fsynced before
//	          ApplyBatch returns
//
// A record holds the batch's epoch, its distinct normalized adds and
// retires, and every standing query's counters after it:
//
//	u64 epoch
//	u32 #adds,    then per set: u32 n, n × u32 vertex
//	u32 #retires, then per set: u32 n, n × u32 vertex
//	u32 #queries, then per query: u64 id, cumAdded, cumRetired, eventSeq
//
// (little-endian). Replay folds the records into the base's edge log and
// re-derives refresh, resurrection and window expiry from the base's
// window, so nothing is re-mined. The base is rewritten — and the log
// truncated after the rename — when the miner opens (NewMiner, Load), on a
// query registration (a record does not carry patterns or baselines), on
// the first durable operation after a failed one (the log then misses a
// record), and when the log grows past the base, which keeps a batch's
// amortized cost O(batch) and the log a load replays no larger than the
// base.
// Records at or below the base's epoch are skipped on replay, so a crash
// between the base's rename and the log's truncate loses nothing.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ohminer/internal/durable"
)

// logFormat is the stream's per-batch log.
var logFormat = durable.LogFormat{Name: "stream log", Magic: 0x4f484d4c, Version: 1, MaxRecord: 1 << 30} // "OHML"

// ErrClosed is returned by a miner's mutating methods after Close.
var ErrClosed = errors.New("stream: miner closed")

// FileSink makes a stream durable in the files at Path (the base snapshot)
// and Path+".log" (the records of the batches applied since).
type FileSink struct {
	Path string

	// wrap, when set, wraps the log file's writer: the fault-injection seam
	// of the stream's tests.
	wrap func(io.Writer) io.Writer
}

// rebase writes the current state as the base and empties the log. On
// failure the miner is dirty: the next durable operation rebases again.
func (m *Miner) rebase() error {
	m.dirty = true
	b, _ := m.snapshotLocked().Marshal()
	if err := durable.WriteFile(m.cfg.Snapshot.Path, b); err != nil {
		return fmt.Errorf("stream: snapshot write: %w", err)
	}
	m.baseSize = int64(len(b))
	var err error
	if m.log == nil {
		m.log, err = durable.CreateLog(m.cfg.Snapshot.Path+".log", logFormat, m.cfg.Snapshot.wrap)
	} else {
		err = m.log.Reset()
	}
	if err != nil {
		return fmt.Errorf("stream: log reset: %w", err)
	}
	m.dirty = false
	return nil
}

// persist makes the batch just applied durable: its record appended and
// fsynced, or a rebase when the log is behind or has outgrown the base.
func (m *Miner) persist(ap *applyPlan, deltas []Delta) error {
	if m.dirty {
		return m.rebase()
	}
	err := m.log.Append(durable.AppendFrame(nil, m.logRecord(ap, deltas)))
	if err == nil {
		err = m.log.Fsync()
	}
	if err != nil {
		m.dirty = true
		return fmt.Errorf("stream: log append: %w", err)
	}
	if m.log.Size() > m.baseSize {
		// The batch is durable already; a failed rebase leaves the miner
		// dirty, and the next batch retries it.
		_ = m.rebase()
	}
	return nil
}

// logRecord encodes the record of the batch just applied.
func (m *Miner) logRecord(ap *applyPlan, deltas []Delta) []byte {
	le := binary.LittleEndian
	b := le.AppendUint64(nil, m.epoch)
	for _, sets := range [2][][]uint32{ap.adds, ap.retires} {
		b = le.AppendUint32(b, uint32(len(sets)))
		for _, e := range sets {
			b = le.AppendUint32(b, uint32(len(e)))
			for _, v := range e {
				b = le.AppendUint32(b, v)
			}
		}
	}
	b = le.AppendUint32(b, uint32(len(deltas)))
	for _, d := range deltas {
		q := m.queries[d.QueryID]
		for _, v := range [...]uint64{q.id, q.cumAdd, q.cumRet, q.seq} {
			b = le.AppendUint64(b, v)
		}
	}
	return b
}

// logRecord is one decoded record; its queries carry only ID, CumAdded,
// CumRetired and EventSeq.
type logRecord struct {
	epoch         uint64
	adds, retires [][]uint32
	queries       []SnapshotQuery
}

// decodeRecord parses one record payload (its frame's checksum already
// verified).
func decodeRecord(p []byte) (*logRecord, error) {
	br := bytes.NewReader(p)
	d := durable.NewReader(br)
	var ep [1]uint64
	if err := d.U64s(ep[:]); err != nil {
		return nil, corruptf("log record: short epoch: %v", err)
	}
	rec := &logRecord{epoch: ep[0]}
	for _, sets := range [2]*[][]uint32{&rec.adds, &rec.retires} {
		n, err := d.U32()
		if err != nil || n > maxSnapEdges {
			return nil, corruptf("log record %d: bad edge count %d (%v)", rec.epoch, n, err)
		}
		for i := uint32(0); i < n; i++ {
			k, err := d.U32()
			if err != nil || k == 0 || k > maxSnapEdgeLen {
				return nil, corruptf("log record %d: bad edge length %d (%v)", rec.epoch, k, err)
			}
			verts, err := d.U32s(k)
			if err != nil {
				return nil, corruptf("log record %d: short edge: %v", rec.epoch, err)
			}
			*sets = append(*sets, verts)
		}
	}
	n, err := d.U32()
	if err != nil || n > maxSnapQueries {
		return nil, corruptf("log record %d: bad query count %d (%v)", rec.epoch, n, err)
	}
	for i := uint32(0); i < n; i++ {
		var c [4]uint64
		if err := d.U64s(c[:]); err != nil {
			return nil, corruptf("log record %d: short query counters: %v", rec.epoch, err)
		}
		rec.queries = append(rec.queries, SnapshotQuery{ID: c[0], CumAdded: c[1], CumRetired: c[2], EventSeq: c[3]})
	}
	if br.Len() != 0 {
		return nil, corruptf("log record %d: %d trailing bytes", rec.epoch, br.Len())
	}
	return rec, nil
}

// replay folds log records into s as ApplyBatch changed the live edges and
// the counters. Records at or below s's epoch are already in it and are
// skipped; the rest must follow on epoch by epoch.
func (s *Snapshot) replay(recs []*logRecord) error {
	keys := make([]string, len(s.Edges))
	live := make(map[string]bool, len(s.Edges))
	for i, e := range s.Edges {
		keys[i] = edgeKey(e.Verts)
		live[keys[i]] = true
	}
	queries := make(map[uint64]*SnapshotQuery, len(s.Queries))
	for i := range s.Queries {
		queries[s.Queries[i].ID] = &s.Queries[i]
	}
	for _, r := range recs {
		if r.epoch <= s.Epoch {
			continue
		}
		t := r.epoch
		if t != s.Epoch+1 {
			return corruptf("log record %d follows epoch %d", t, s.Epoch)
		}
		// Retired, refreshed and re-added sets leave their place; the adds
		// come back at the end with epoch t, and whatever the window expires
		// is dropped.
		drop := make(map[string]bool, len(r.adds)+len(r.retires))
		for _, e := range r.retires {
			k := edgeKey(e)
			if !live[k] {
				return corruptf("log record %d retires an edge that is not live", t)
			}
			drop[k] = true
		}
		addKeys := make([]string, len(r.adds))
		for i, e := range r.adds {
			addKeys[i] = edgeKey(e)
			drop[addKeys[i]] = true
		}
		var cutoff uint64
		if s.Window > 0 && t > s.Window {
			cutoff = t - s.Window
		}
		n := 0
		for i, e := range s.Edges {
			if drop[keys[i]] || e.AddEpoch <= cutoff {
				delete(live, keys[i])
				continue
			}
			s.Edges[n], keys[n] = e, keys[i]
			n++
		}
		s.Edges, keys = s.Edges[:n], keys[:n]
		for i, e := range r.adds {
			if live[addKeys[i]] {
				return corruptf("log record %d adds an edge twice", t)
			}
			live[addKeys[i]] = true
			s.Edges = append(s.Edges, SnapshotEdge{Verts: e, AddEpoch: t})
			keys = append(keys, addKeys[i])
		}
		if len(r.queries) != len(s.Queries) {
			return corruptf("log record %d has %d queries, the base %d", t, len(r.queries), len(s.Queries))
		}
		for _, c := range r.queries {
			q := queries[c.ID]
			if q == nil {
				return corruptf("log record %d names unknown query %d", t, c.ID)
			}
			q.CumAdded, q.CumRetired, q.EventSeq = c.CumAdded, c.CumRetired, c.EventSeq
		}
		s.Epoch = t
	}
	return nil
}

// ReadFile loads the stream a FileSink persisted at path: the base snapshot
// with the intact records of path+".log" folded in, validated. A torn final
// record (a crash mid-append, before its batch was acknowledged) is
// dropped; a damaged complete one is ErrCorrupt.
func ReadFile(path string) (*Snapshot, error) {
	s, err := readBase(path)
	if err != nil {
		return nil, err
	}
	frames, err := durable.ReadLog(path+".log", logFormat)
	if errors.Is(err, durable.ErrCorrupt) {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if err != nil {
		return nil, err
	}
	if len(frames) == 0 {
		return s, nil
	}
	recs := make([]*logRecord, len(frames))
	for i, f := range frames {
		if recs[i], err = decodeRecord(f); err != nil {
			return nil, err
		}
	}
	if err := s.replay(recs); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Close releases the stream's log file. Afterwards the miner refuses
// batches and registrations with ErrClosed; what it acknowledged is on disk.
func (m *Miner) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		m.err = ErrClosed
	}
	if m.log == nil {
		return nil
	}
	err := m.log.Close()
	m.log = nil
	return err
}
