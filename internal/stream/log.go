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
//	u32 #adds,    then per set: u32 n, n × u32 vertex (as in the base)
//	u32 #retires, then per set: u32 n, n × u32 vertex
//	u32 #queries, then per query: u64 id, cumAdded, cumRetired, eventSeq
//
// (little-endian). A load (LoadFile) replays the records through the
// batch path's own rules — planBatch classifies each record's sets into
// refresh, resurrection, retire-and-re-add and window expiry, commit applies
// its bookkeeping — and takes the counters from the record, so nothing is
// re-mined and the store is laid out once, after the last record; the edges
// the records retired stay in it, masked, until the miner compacts. The base
// is written — and the log emptied after the rename — by NewMiner, on a
// query registration (a record does not carry patterns or baselines), on the
// first durable operation after a failed one (the log then misses a record),
// and when the log grows past the base, which keeps a batch's amortized cost
// O(batch) and the log a load replays no larger than the base. A load with
// the sink writes no base: the next batch appends to the log it replayed.
// Records at or below the base's epoch are skipped on replay, so a crash
// between the base's rename and the log's truncate loses nothing.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

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
			b = appendVerts(b, e)
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
			verts, err := readVerts(d)
			if err != nil {
				return nil, corruptf("log record %d: %v", rec.epoch, err)
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

// replay applies one log record as ApplyBatch applied its batch — planBatch,
// then commit — and takes the query counters the record carries, so nothing
// is laid out or mined per record. A record at or below the epoch is already
// in the base and is skipped. A record that cannot follow on is ErrCorrupt:
// one past the next epoch, or one that is not the distinct, strictly
// ascending sets ApplyBatch logs, or one planBatch refuses, or one whose
// queries are not the miner's.
func (m *Miner) replay(frame []byte) error {
	r, err := decodeRecord(frame)
	if err != nil || r.epoch <= m.epoch {
		return err
	}
	t := r.epoch
	if t != m.epoch+1 {
		return corruptf("log record %d follows epoch %d", t, m.epoch)
	}
	ap, err := m.planBatch(Batch{Add: r.adds, Retire: r.retires})
	if err != nil {
		return corruptf("log record %d: %v", t, err)
	}
	// planBatch absorbs a repeated set and normalize repairs an unsorted one;
	// a record holds what they leave.
	if !slices.EqualFunc(ap.adds, r.adds, slices.Equal) || !slices.EqualFunc(ap.retires, r.retires, slices.Equal) {
		return corruptf("log record %d repeats a vertex set or holds one not strictly ascending", t)
	}
	if len(r.queries) != len(m.queries) {
		return corruptf("log record %d has %d queries, the base %d", t, len(r.queries), len(m.queries))
	}
	// Both list the queries in ID order, so position i names one query.
	ids := m.queryIDs()
	for i, c := range r.queries {
		if c.ID != ids[i] {
			return corruptf("log record %d names query %d where the base has %d", t, c.ID, ids[i])
		}
		if m.queries[c.ID].base+c.CumAdded < c.CumRetired {
			return corruptf("log record %d: query %d: negative cumulative total", t, c.ID)
		}
	}
	m.commit(ap)
	for _, c := range r.queries {
		q := m.queries[c.ID]
		q.cumAdd, q.cumRet, q.seq = c.CumAdded, c.CumRetired, c.EventSeq
	}
	return nil
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
