// The OHMT stream snapshot: a versioned, CRC32C-framed, bounds-checked
// binary capture of everything a streaming miner needs to resume
// exactly-once — the live edge log with add epochs (the batch-log
// watermark) and every standing query's cumulative counters. Follows the
// OHMC/OHMS conventions: little-endian u64 framing, magic + version header,
// incremental allocation during decode so corrupt lengths cannot balloon
// memory, a trailing checksum so torn or flipped bytes are refused at load
// time, and atomic temp+fsync+rename persistence.
//
// Retired edges are deliberately absent: resurrection assigns a fresh add
// epoch anyway, so garbage is not semantic state and every resume starts
// compacted.
package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"ohminer/internal/crcio"
	"ohminer/internal/dal"
	"ohminer/internal/hypergraph"
	"ohminer/internal/pattern"
)

const (
	// Magic identifies the stream snapshot format ("OHMT", T for temporal).
	Magic uint64 = 0x4f484d54
	// Version is the current format version.
	Version uint64 = 1

	maxSnapVertices = 1 << 31
	maxSnapEdges    = 1 << 26
	maxSnapEdgeLen  = 1 << 20
	maxSnapQueries  = 1 << 16
	maxSnapPattern  = 1 << 16
)

// ErrCorrupt wraps every decode or validation failure: the bytes are not a
// well-formed, internally consistent stream snapshot.
var ErrCorrupt = errors.New("stream: corrupt snapshot")

// SnapshotEdge is one live hyperedge in the log.
type SnapshotEdge struct {
	Verts    []uint32 // normalized: sorted, deduped, within the universe
	AddEpoch uint64   // last add/refresh epoch, in [1, Epoch]
}

// SnapshotQuery is one standing query's durable state.
type SnapshotQuery struct {
	ID         uint64
	BaseEpoch  uint64
	Base       uint64 // ordered baseline count at registration
	CumAdded   uint64
	CumRetired uint64
	EventSeq   uint64
	Pattern    string // pattern literal, reparsed on load
}

// Snapshot is the decoded stream snapshot.
type Snapshot struct {
	NumVertices uint64
	Window      uint64
	Epoch       uint64
	NextQID     uint64
	Edges       []SnapshotEdge
	Queries     []SnapshotQuery
}

// Marshal encodes the snapshot in OHMT framing, checksum trailer included,
// into one exactly sized slice. The error is always nil; the signature is
// the one snapshot sinks are written against.
func (s *Snapshot) Marshal() ([]byte, error) {
	le := binary.LittleEndian
	b := make([]byte, 0, s.encodedSize())
	for _, v := range [...]uint64{
		Magic, Version, s.NumVertices, s.Window, s.Epoch, s.NextQID,
		uint64(len(s.Edges)), uint64(len(s.Queries)),
	} {
		b = le.AppendUint64(b, v)
	}
	for _, e := range s.Edges {
		b = le.AppendUint32(b, uint32(len(e.Verts)))
		for _, v := range e.Verts {
			b = le.AppendUint32(b, v)
		}
		b = le.AppendUint64(b, e.AddEpoch)
	}
	for _, q := range s.Queries {
		for _, v := range [...]uint64{q.ID, q.BaseEpoch, q.Base, q.CumAdded, q.CumRetired, q.EventSeq} {
			b = le.AppendUint64(b, v)
		}
		b = le.AppendUint32(b, uint32(len(q.Pattern)))
		b = append(b, q.Pattern...)
	}
	return le.AppendUint32(b, crcio.Checksum(b)), nil
}

// encodedSize is the exact length of the OHMT encoding.
func (s *Snapshot) encodedSize() int {
	n := 8*8 + 4
	for _, e := range s.Edges {
		n += 4 + 4*len(e.Verts) + 8
	}
	for _, q := range s.Queries {
		n += 6*8 + 4 + len(q.Pattern)
	}
	return n
}

// Encode writes the snapshot in OHMT framing with a single Write, so an
// unbuffered destination (a file) sees one system call per snapshot.
func (s *Snapshot) Encode(w io.Writer) error {
	b, _ := s.Marshal()
	_, err := w.Write(b)
	return err
}

func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// decoder reads little-endian fields off a checksummed stream through one
// reusable byte buffer.
type decoder struct {
	r   *crcio.Reader
	buf [1 << 12]byte
}

func (d *decoder) u32() (uint32, error) {
	if _, err := io.ReadFull(d.r, d.buf[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(d.buf[:4]), nil
}

func (d *decoder) u64s(dst []uint64) error {
	if _, err := io.ReadFull(d.r, d.buf[:8*len(dst)]); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(d.buf[8*i:])
	}
	return nil
}

// u32s reads n uint32s a buffer at a time, growing the result as bytes
// actually arrive, so a corrupt length cannot allocate unbounded memory
// before the read fails.
func (d *decoder) u32s(n uint32) ([]uint32, error) {
	out := make([]uint32, 0, min(int(n), len(d.buf)/4))
	for len(out) < int(n) {
		part := d.buf[:4*min(int(n)-len(out), len(d.buf)/4)]
		if _, err := io.ReadFull(d.r, part); err != nil {
			return nil, err
		}
		for i := 0; i < len(part); i += 4 {
			out = append(out, binary.LittleEndian.Uint32(part[i:]))
		}
	}
	return out, nil
}

// Decode reads, checksums, and validates one snapshot. It never panics on
// corrupt input: framing errors, truncated tails, flipped bytes (checksum),
// and semantically inconsistent contents all return an error wrapping
// ErrCorrupt.
func Decode(r io.Reader) (*Snapshot, error) {
	d := &decoder{r: crcio.NewReader(r)}
	var head [8]uint64
	if err := d.u64s(head[:]); err != nil {
		return nil, corruptf("short header: %v", err)
	}
	if head[0] != Magic {
		return nil, corruptf("bad magic %#x", head[0])
	}
	if head[1] != Version {
		return nil, corruptf("unsupported version %d", head[1])
	}
	s := &Snapshot{
		NumVertices: head[2],
		Window:      head[3],
		Epoch:       head[4],
		NextQID:     head[5],
	}
	numEdges, numQueries := head[6], head[7]
	if s.NumVertices == 0 || s.NumVertices > maxSnapVertices {
		return nil, corruptf("vertex count %d out of range", s.NumVertices)
	}
	if numEdges > maxSnapEdges {
		return nil, corruptf("edge count %d exceeds limit", numEdges)
	}
	if numQueries > maxSnapQueries {
		return nil, corruptf("query count %d exceeds limit", numQueries)
	}
	for i := uint64(0); i < numEdges; i++ {
		n, err := d.u32()
		if err != nil {
			return nil, corruptf("edge %d: short length: %v", i, err)
		}
		if n == 0 || n > maxSnapEdgeLen {
			return nil, corruptf("edge %d: vertex count %d out of range", i, n)
		}
		verts, err := d.u32s(n)
		if err != nil {
			return nil, corruptf("edge %d: short vertex list: %v", i, err)
		}
		var ae [1]uint64
		if err := d.u64s(ae[:]); err != nil {
			return nil, corruptf("edge %d: short epoch: %v", i, err)
		}
		s.Edges = append(s.Edges, SnapshotEdge{Verts: verts, AddEpoch: ae[0]})
	}
	for i := uint64(0); i < numQueries; i++ {
		var qh [6]uint64
		if err := d.u64s(qh[:]); err != nil {
			return nil, corruptf("query %d: short record: %v", i, err)
		}
		n, err := d.u32()
		if err != nil {
			return nil, corruptf("query %d: short pattern length: %v", i, err)
		}
		if n == 0 || n > maxSnapPattern {
			return nil, corruptf("query %d: pattern length %d out of range", i, n)
		}
		lit := make([]byte, n)
		if _, err := io.ReadFull(d.r, lit); err != nil {
			return nil, corruptf("query %d: short pattern: %v", i, err)
		}
		s.Queries = append(s.Queries, SnapshotQuery{
			ID: qh[0], BaseEpoch: qh[1], Base: qh[2],
			CumAdded: qh[3], CumRetired: qh[4], EventSeq: qh[5],
			Pattern: string(lit),
		})
	}
	if err := d.r.CheckTrailer("stream snapshot"); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks the snapshot's internal consistency beyond framing.
func (s *Snapshot) Validate() error {
	if s.NumVertices == 0 || s.NumVertices > maxSnapVertices {
		return corruptf("vertex count %d out of range", s.NumVertices)
	}
	seen := make(map[string]bool, len(s.Edges))
	for i, e := range s.Edges {
		if len(e.Verts) == 0 {
			return corruptf("edge %d: empty", i)
		}
		for j, v := range e.Verts {
			if uint64(v) >= s.NumVertices {
				return corruptf("edge %d: vertex %d out of range", i, v)
			}
			if j > 0 && e.Verts[j-1] >= v {
				return corruptf("edge %d: vertices not strictly ascending", i)
			}
		}
		if e.AddEpoch == 0 || e.AddEpoch > s.Epoch {
			return corruptf("edge %d: add epoch %d outside (0, %d]", i, e.AddEpoch, s.Epoch)
		}
		key := edgeKey(e.Verts)
		if seen[key] {
			return corruptf("edge %d: duplicate vertex set", i)
		}
		seen[key] = true
	}
	ids := make(map[uint64]bool, len(s.Queries))
	canon := make(map[string]bool, len(s.Queries))
	for i, q := range s.Queries {
		if q.ID == 0 || q.ID >= s.NextQID {
			return corruptf("query %d: id %d outside [1, %d)", i, q.ID, s.NextQID)
		}
		if ids[q.ID] {
			return corruptf("query %d: duplicate id %d", i, q.ID)
		}
		ids[q.ID] = true
		if q.BaseEpoch > s.Epoch {
			return corruptf("query %d: base epoch %d beyond %d", i, q.BaseEpoch, s.Epoch)
		}
		if q.Base+q.CumAdded < q.CumRetired {
			return corruptf("query %d: negative cumulative total", i)
		}
		p, err := pattern.Parse(q.Pattern)
		if err != nil {
			return corruptf("query %d: bad pattern: %v", i, err)
		}
		if p.Labeled() || p.EdgeLabeled() {
			return corruptf("query %d: labeled pattern", i)
		}
		ck, ok := pattern.CanonicalKey(p)
		if !ok {
			ck = "lit:" + p.String()
		}
		if canon[ck] {
			return corruptf("query %d: duplicate canonical pattern", i)
		}
		canon[ck] = true
	}
	return nil
}

// Unmarshal decodes and validates a byte slice.
func Unmarshal(b []byte) (*Snapshot, error) {
	return Decode(bytes.NewReader(b))
}

// WriteFile atomically persists the snapshot at path (AtomicWriteFile), so a
// crash mid-write leaves the previous snapshot intact.
func (s *Snapshot) WriteFile(path string) (int64, error) {
	b, _ := s.Marshal()
	if err := AtomicWriteFile(path, b); err != nil {
		return 0, err
	}
	return int64(len(b)), nil
}

// AtomicWriteFile persists data at path through a temp file in the same
// directory: one write, fsync, rename. A crash mid-write leaves the previous
// file intact, and a power loss after the rename cannot lose the new one.
func AtomicWriteFile(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".ohmt-*")
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

// ReadFile loads and validates a snapshot written by WriteFile.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(bufio.NewReader(f))
}

// Sink receives stream snapshots on the configured cadence.
type Sink interface {
	WriteSnapshot(s *Snapshot) (int64, error)
}

// FileSink persists every snapshot to one path, atomically replacing the
// previous one.
type FileSink struct {
	Path string
}

// WriteSnapshot implements Sink.
func (fs *FileSink) WriteSnapshot(s *Snapshot) (int64, error) {
	return s.WriteFile(fs.Path)
}

// MemSink retains the latest snapshot, already encoded, in memory — the
// test double standing in for durable storage.
type MemSink struct {
	mu     sync.Mutex
	data   []byte
	epoch  uint64
	writes int
}

// WriteSnapshot implements Sink.
func (ms *MemSink) WriteSnapshot(s *Snapshot) (int64, error) {
	b, err := s.Marshal()
	if err != nil {
		return 0, err
	}
	ms.mu.Lock()
	ms.data = b
	ms.epoch = s.Epoch
	ms.writes++
	ms.mu.Unlock()
	return int64(len(b)), nil
}

// Bytes returns the latest encoded snapshot (nil when nothing was written).
func (ms *MemSink) Bytes() []byte {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.data
}

// Epoch reports the epoch of the latest snapshot, 0 when none.
func (ms *MemSink) Epoch() uint64 {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.epoch
}

// Writes reports how many snapshots the sink received.
func (ms *MemSink) Writes() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.writes
}

// snapshotLocked captures the miner's durable state. Caller holds m.mu.
func (m *Miner) snapshotLocked() *Snapshot {
	s := &Snapshot{
		NumVertices: uint64(m.cfg.NumVertices),
		Window:      m.cfg.Window,
		Epoch:       m.epoch,
		NextQID:     m.nextQID,
	}
	// The vertex sets are copied (the snapshot outlives the lock) into one
	// arena, sized up front so that no append reallocates under the
	// sub-slices already handed out.
	size := 0
	for id, re := range m.retireEpoch {
		if re == 0 {
			size += m.h.Degree(uint32(id))
		}
	}
	arena := make([]uint32, 0, size)
	s.Edges = make([]SnapshotEdge, 0, m.live)
	for id, re := range m.retireEpoch {
		if re != 0 {
			continue
		}
		at := len(arena)
		arena = append(arena, m.h.EdgeVertices(uint32(id))...)
		s.Edges = append(s.Edges, SnapshotEdge{Verts: arena[at:len(arena):len(arena)], AddEpoch: m.addEpoch[id]})
	}
	qids := make([]uint64, 0, len(m.queries))
	for id := range m.queries {
		qids = append(qids, id)
	}
	sortU64(qids)
	for _, id := range qids {
		q := m.queries[id]
		s.Queries = append(s.Queries, SnapshotQuery{
			ID: q.id, BaseEpoch: q.baseEpoch, Base: q.base,
			CumAdded: q.cumAdd, CumRetired: q.cumRet, EventSeq: q.seq,
			Pattern: q.lit,
		})
	}
	return s
}

func sortU64(v []uint64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
}

func (m *Miner) writeSnapshotLocked() error {
	if _, err := m.cfg.Snapshot.WriteSnapshot(m.snapshotLocked()); err != nil {
		return fmt.Errorf("stream: snapshot write: %w", err)
	}
	m.sinceSnap = 0
	m.dirty = false
	return nil
}

// SnapshotState captures the current durable state without writing it.
func (m *Miner) SnapshotState() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked()
}

// WriteSnapshot forces a snapshot to the configured sink regardless of
// cadence.
func (m *Miner) WriteSnapshot() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	if m.cfg.Snapshot == nil {
		return errors.New("stream: no snapshot sink configured")
	}
	return m.writeSnapshotLocked()
}

// Load reconstructs a miner from a snapshot. The snapshot's semantic fields
// (vertex universe, window, epoch, query counters) override cfg's; cfg
// supplies the runtime knobs (engine options, compaction, sink, cadence).
// Cumulative query totals continue exactly where the snapshot left them —
// nothing is re-mined on load except nothing at all: baselines and deltas
// are durable state.
func Load(s *Snapshot, cfg Config) (*Miner, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg.NumVertices = int(s.NumVertices)
	cfg.Window = s.Window
	m, err := NewMiner(cfg)
	if err != nil {
		return nil, err
	}
	m.epoch = s.Epoch
	m.nextQID = s.NextQID
	if m.nextQID == 0 {
		m.nextQID = 1
	}
	if len(s.Edges) > 0 {
		edges := make([][]uint32, len(s.Edges))
		for i, e := range s.Edges {
			edges[i] = e.Verts
		}
		h, err := hypergraph.Build(cfg.NumVertices, edges, nil)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if h.NumEdges() != len(edges) {
			return nil, corruptf("edge log deduplicated on rebuild")
		}
		m.h = h
		m.store = dal.Build(h)
		m.addEpoch = make([]uint64, len(edges))
		m.retireEpoch = make([]uint64, len(edges))
		for i, e := range s.Edges {
			m.addEpoch[i] = e.AddEpoch
			m.index[edgeKey(e.Verts)] = uint32(i)
		}
		m.live = len(edges)
	}
	for _, sq := range s.Queries {
		p, err := pattern.Parse(sq.Pattern)
		if err != nil {
			return nil, corruptf("query %d: bad pattern: %v", sq.ID, err)
		}
		canon, ok := pattern.CanonicalKey(p)
		if !ok {
			canon = "lit:" + p.String()
		}
		q := &query{
			id:        sq.ID,
			p:         p,
			lit:       p.String(),
			canon:     canon,
			aut:       uint64(p.Automorphisms()),
			baseEpoch: sq.BaseEpoch,
			base:      sq.Base,
			cumAdd:    sq.CumAdded,
			cumRet:    sq.CumRetired,
			seq:       sq.EventSeq,
		}
		m.queries[q.id] = q
		m.byCanon[canon] = q.id
	}
	return m, nil
}

// LoadFile is Load over a snapshot file.
func LoadFile(path string, cfg Config) (*Miner, error) {
	s, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Load(s, cfg)
}
