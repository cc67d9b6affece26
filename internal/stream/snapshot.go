// The OHMT stream snapshot: a versioned, CRC32C-framed, bounds-checked
// binary capture of everything a streaming miner needs to resume
// exactly-once — the live edge log with add epochs (the batch-log
// watermark) and every standing query's cumulative counters. Follows the
// OHMC/OHMS conventions: little-endian u64 framing, magic + version header,
// incremental allocation during decode so corrupt lengths cannot balloon
// memory, and a trailing checksum so torn or flipped bytes are refused at
// load time; internal/durable owns the checksum and the bounded reads. A
// FileSink keeps it as the base the stream's per-batch log extends (log.go).
//
// Retired edges are deliberately absent: resurrection assigns a fresh add
// epoch anyway, so garbage is not semantic state. A resume that replays a
// log keeps the edges its records retired as garbage until the miner
// compacts.
package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ohminer/internal/durable"
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
		b = le.AppendUint64(appendVerts(b, e.Verts), e.AddEpoch)
	}
	for _, q := range s.Queries {
		for _, v := range [...]uint64{q.ID, q.BaseEpoch, q.Base, q.CumAdded, q.CumRetired, q.EventSeq} {
			b = le.AppendUint64(b, v)
		}
		b = le.AppendUint32(b, uint32(len(q.Pattern)))
		b = append(b, q.Pattern...)
	}
	return le.AppendUint32(b, durable.Checksum(b)), nil
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

// appendVerts appends one vertex set — u32 n, then n × u32 — the encoding
// of a hyperedge in both the OHMT base and the OHML log records.
func appendVerts(b []byte, e []uint32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e)))
	for _, v := range e {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// readVerts reads one vertex set written by appendVerts. An empty set, one
// of more than maxSnapEdgeLen vertices and one cut short are errors, which
// both decoders report as ErrCorrupt.
func readVerts(d *durable.Reader) ([]uint32, error) {
	n, err := d.U32()
	if err != nil {
		return nil, fmt.Errorf("short vertex count: %v", err)
	}
	if n == 0 || n > maxSnapEdgeLen {
		return nil, fmt.Errorf("vertex count %d out of range", n)
	}
	verts, err := d.U32s(n)
	if err != nil {
		return nil, fmt.Errorf("short vertex list: %v", err)
	}
	return verts, nil
}

func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Decode reads, checksums, and validates one snapshot. It never panics on
// corrupt input: framing errors, truncated tails, flipped bytes (checksum),
// and semantically inconsistent contents all return an error wrapping
// ErrCorrupt.
func Decode(r io.Reader) (*Snapshot, error) {
	d := durable.NewReader(r)
	var head [8]uint64
	if err := d.U64s(head[:]); err != nil {
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
		verts, err := readVerts(d)
		if err != nil {
			return nil, corruptf("edge %d: %v", i, err)
		}
		var ae [1]uint64
		if err := d.U64s(ae[:]); err != nil {
			return nil, corruptf("edge %d: short epoch: %v", i, err)
		}
		s.Edges = append(s.Edges, SnapshotEdge{Verts: verts, AddEpoch: ae[0]})
	}
	for i := uint64(0); i < numQueries; i++ {
		var qh [6]uint64
		if err := d.U64s(qh[:]); err != nil {
			return nil, corruptf("query %d: short record: %v", i, err)
		}
		n, err := d.U32()
		if err != nil {
			return nil, corruptf("query %d: short pattern length: %v", i, err)
		}
		if n == 0 || n > maxSnapPattern {
			return nil, corruptf("query %d: pattern length %d out of range", i, n)
		}
		lit := make([]byte, n)
		if _, err := io.ReadFull(d, lit); err != nil {
			return nil, corruptf("query %d: short pattern: %v", i, err)
		}
		s.Queries = append(s.Queries, SnapshotQuery{
			ID: qh[0], BaseEpoch: qh[1], Base: qh[2],
			CumAdded: qh[3], CumRetired: qh[4], EventSeq: qh[5],
			Pattern: string(lit),
		})
	}
	if err := d.CheckTrailer("stream snapshot"); err != nil {
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
		ck, _ := pattern.CanonicalKey(p)
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

// snapshotLocked captures the miner's durable state. Caller holds m.mu.
func (m *Miner) snapshotLocked() *Snapshot {
	s := &Snapshot{
		NumVertices: uint64(m.cfg.NumVertices),
		Window:      m.cfg.Window,
		Epoch:       m.epoch,
		NextQID:     m.nextQID,
		Edges:       m.liveEdges(),
	}
	for _, id := range m.queryIDs() {
		q := m.queries[id]
		s.Queries = append(s.Queries, SnapshotQuery{
			ID: q.id, BaseEpoch: q.baseEpoch, Base: q.base,
			CumAdded: q.cumAdd, CumRetired: q.cumRet, EventSeq: q.seq,
			Pattern: q.lit,
		})
	}
	return s
}

// liveEdges copies the live edges, in physical-ID order, with their add
// epochs: the one walk behind snapshots, compaction and LiveEdgeSets. The
// vertex sets share one arena, sized up front so that no append reallocates
// under the sets already handed out, and each set's capacity ends at its
// length. Caller holds m.mu.
func (m *Miner) liveEdges() []SnapshotEdge {
	size := 0
	for id, re := range m.retireEpoch {
		if re == 0 {
			size += len(m.verts(uint32(id)))
		}
	}
	arena := make([]uint32, 0, size)
	edges := make([]SnapshotEdge, 0, m.live)
	for id, re := range m.retireEpoch {
		if re != 0 {
			continue
		}
		at := len(arena)
		arena = append(arena, m.verts(uint32(id))...)
		edges = append(edges, SnapshotEdge{Verts: arena[at:len(arena):len(arena)], AddEpoch: m.addEpoch[id]})
	}
	return edges
}

// SnapshotState captures the current durable state without writing it.
func (m *Miner) SnapshotState() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked()
}

// LoadFile reconstructs a miner from the files a FileSink writes: the base
// at path, whose semantic fields override cfg's, with the intact records of
// path+".log" replayed (log.go); nothing is re-mined. A torn final record (a
// crash mid-append, before its batch was acknowledged) is dropped; a damaged
// complete one is ErrCorrupt. Without cfg.Snapshot the files are only read;
// with it the log is reopened for appending as the cluster coordinator
// reopens its WAL (a torn tail cut off, the base left as it is), and a sink
// naming other files than path is refused.
func LoadFile(path string, cfg Config) (*Miner, error) {
	if cfg.Snapshot != nil && filepath.Clean(cfg.Snapshot.Path) != filepath.Clean(path) {
		return nil, fmt.Errorf("stream: sink %q does not name the stream loaded from %q", cfg.Snapshot.Path, path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Unmarshal(b)
	if err != nil {
		return nil, err
	}
	var log *durable.Log
	var frames [][]byte
	if cfg.Snapshot != nil {
		log, frames, err = durable.OpenLog(path+".log", logFormat, cfg.Snapshot.wrap)
	} else {
		frames, err = durable.ReadLog(path+".log", logFormat)
	}
	if errors.Is(err, durable.ErrCorrupt) {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if err != nil {
		return nil, err
	}
	m, err := open(s, frames, cfg)
	if err == nil {
		m.log, m.baseSize = log, int64(len(b))
	} else if log != nil {
		log.Close()
	}
	return m, err
}

// open makes a miner of the validated base s: it installs the base's edges
// and queries, replays the log records frames and lays the store out once —
// the edges the records retired stay in it, masked, until shouldCompact
// removes them, as in a live miner. It writes nothing.
func open(s *Snapshot, frames [][]byte, cfg Config) (*Miner, error) {
	cfg.NumVertices = int(s.NumVertices)
	cfg.Window = s.Window
	m, err := newMiner(cfg)
	if err != nil {
		return nil, err
	}
	m.epoch = s.Epoch
	m.nextQID = max(s.NextQID, 1)
	m.install(s.Edges)
	for _, sq := range s.Queries {
		p, err := pattern.Parse(sq.Pattern)
		if err != nil {
			return nil, corruptf("query %d: bad pattern: %v", sq.ID, err)
		}
		ck, _ := pattern.CanonicalKey(p)
		q := m.addQuery(sq.ID, p, ck, sq.BaseEpoch)
		q.base, q.cumAdd, q.cumRet, q.seq = sq.Base, sq.CumAdded, sq.CumRetired, sq.EventSeq
	}
	for _, f := range frames {
		if err := m.replay(f); err != nil {
			return nil, err
		}
	}
	if err := m.layout(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return m, nil
}
