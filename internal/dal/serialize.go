package dal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"ohminer/internal/durable"
	"ohminer/internal/hypergraph"
	"ohminer/internal/intset"
)

// Binary persistence for the DAL. The paper amortizes DAL construction as
// offline preprocessing reused across HPM applications (Sec. 4.5/Table 6);
// Save/Load make that concrete: construction runs once, subsequent
// processes load the index in a single sequential read. The header embeds
// the source hypergraph's fingerprint, so loading against a different
// hypergraph fails instead of silently mis-indexing, and the file ends in a
// CRC32C trailer over every preceding byte (internal/durable's, shared with
// the snapshot formats), so torn writes and bit-flips are rejected at load
// time instead of surfacing as silently wrong mining results.

const (
	dalMagic = 0x4f484d44 // "OHMD"
	// dalVersion 3 keys the group table on (degree, overlap size): one more
	// group array, grpOvl, between grpDeg and grpStart. A version-2 file
	// (degree-only groups) still loads — header, checksum and fingerprint are
	// checked as for version 3, then the store is regrouped from the
	// hypergraph, since its adjacency order and group table are the old
	// layout's. Version-1 files (no CRC32C trailer) are rejected with a
	// rebuild hint rather than risking an undetected corruption window.
	dalVersion    = 3
	dalVersionDeg = 2
	// ioChunk is the size of the buffer the arrays are encoded and decoded
	// through, instead of one temporary the size of the adjacency.
	ioChunk = 64 << 10
)

// ErrInconsistent tags a store file that is intact on the wire (header and
// checksum pass) but whose tables contradict each other or the hypergraph;
// the accessors would mis-index or panic on it.
var ErrInconsistent = errors.New("dal: inconsistent store")

// csr is the store's tables as an OHMD file holds them: compressed sparse
// rows in hyperedge order, adjOff and grpOff the running totals of the
// segment and group counts, grpStart positions in the adj written.
type csr struct {
	adjOff, adj, grpOff, grpDeg, grpOvl, grpStart []uint32
}

// tables lists the tables in file order.
func (c *csr) tables() [][]uint32 {
	return [][]uint32{c.adjOff, c.adj, c.grpOff, c.grpDeg, c.grpOvl, c.grpStart}
}

// encoder writes uint32s little-endian through a chunk buffer, latching the
// first write error.
type encoder struct {
	w   io.Writer
	buf []byte
	err error
}

// u32s writes vs, shift added to each value.
func (c *encoder) u32s(vs []uint32, shift uint32) {
	for len(vs) > 0 {
		buf := c.buf
		n := min(len(vs), (cap(buf)-len(buf))/4)
		for _, v := range vs[:n] {
			buf = binary.LittleEndian.AppendUint32(buf, v+shift)
		}
		if c.buf, vs = buf, vs[n:]; len(buf) == cap(buf) {
			c.flush()
		}
	}
}

func (c *encoder) flush() {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

// bounds returns a hyperedge's group range, or with adj its segment.
func (sp span) bounds(adj bool) (lo, hi uint32) {
	if adj {
		return sp.adjLo, sp.adjHi
	}
	return sp.grpLo, sp.grpHi
}

// offsets writes the running totals of the sizes of every hyperedge's
// segment (adj) or group range, from 0: a CSR offset table.
func (c *encoder) offsets(spans []span, adj bool) {
	out := make([]uint32, 1, ioChunk/4)
	var at uint32
	for _, sp := range spans {
		lo, hi := sp.bounds(adj)
		at += hi - lo
		if out = append(out, at); len(out) == cap(out) {
			c.u32s(out, 0)
			out = out[:0]
		}
	}
	c.u32s(out, 0)
}

// ranges writes tab[lo:hi] for every hyperedge's segment (adj) or group
// range, in ID order. With rebase, each value is an adjacency position,
// moved from where the hyperedge's segment lies to where the file puts it.
// Back-to-back ranges under the same move are one write: one for a store as
// Build lays it out.
func (c *encoder) ranges(tab []uint32, spans []span, adj, rebase bool) {
	var lo, hi, shift, at uint32
	for _, sp := range spans {
		l, h := sp.bounds(adj)
		var d uint32
		if rebase {
			d, at = at-sp.adjLo, at+sp.adjHi-sp.adjLo
		}
		if l != hi || d != shift {
			c.u32s(tab[lo:hi], shift)
			lo, shift = l, d
		}
		hi = h
	}
	c.u32s(tab[lo:hi], shift)
}

// Save writes the store in binary form: its tables in CSR form (csr),
// hyperedge by hyperedge wherever their segments lie, so a store grown by
// BuildDelta writes the bytes Build's store on the same hypergraph writes.
func (s *Store) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := durable.NewWriter(bw)
	m := len(s.spans)
	var nAdj, nGrp uint64
	for _, sp := range s.spans {
		nAdj += uint64(sp.adjHi - sp.adjLo)
		nGrp += uint64(sp.grpHi - sp.grpLo)
	}
	header := []uint64{
		dalMagic,
		dalVersion,
		s.h.Fingerprint(),
		uint64(m + 1),
		nAdj,
		uint64(m + 1),
		nGrp,
		nGrp,
	}
	for _, v := range header {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("dal: save header: %w", err)
		}
	}
	enc := &encoder{w: cw, buf: make([]byte, 0, ioChunk)}
	enc.offsets(s.spans, true)
	enc.ranges(s.adj, s.spans, true, false)
	enc.offsets(s.spans, false)
	enc.ranges(s.grpDeg, s.spans, false, false)
	enc.ranges(s.grpOvl, s.spans, false, false)
	enc.ranges(s.grpStart, s.spans, false, true)
	if enc.flush(); enc.err != nil {
		return fmt.Errorf("dal: save data: %w", enc.err)
	}
	if err := cw.WriteTrailer(); err != nil {
		return fmt.Errorf("dal: save trailer: %w", err)
	}
	return bw.Flush()
}

// SaveFile writes the store to the named file.
func (s *Store) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a store previously written by Save and attaches it to h, which
// must be the identical hypergraph (verified via fingerprint).
func Load(r io.Reader, h *hypergraph.Hypergraph) (*Store, error) {
	cr := durable.NewReader(bufio.NewReader(r))
	header := make([]uint64, 8)
	if err := cr.U64s(header); err != nil {
		return nil, fmt.Errorf("dal: corrupt store: short header: %w", err)
	}
	if header[0] != dalMagic {
		return nil, fmt.Errorf("dal: not a DAL store (magic %#x, want %#x)", header[0], dalMagic)
	}
	if header[1] != dalVersion && header[1] != dalVersionDeg {
		return nil, fmt.Errorf("dal: unsupported store version %d (this build reads versions %d and %d; rebuild the store from the hypergraph)", header[1], dalVersionDeg, dalVersion)
	}
	if header[2] != h.Fingerprint() {
		return nil, fmt.Errorf("dal: store was built for a different hypergraph (fingerprint %#x, want %#x)", header[2], h.Fingerprint())
	}
	m := h.NumEdges()
	if header[3] != uint64(m+1) || header[5] != uint64(m+1) {
		return nil, fmt.Errorf("dal: corrupt store: offset tables sized %d/%d for %d hyperedges", header[3], header[5], m)
	}
	// Bound the array lengths relative to the hypergraph before allocating:
	// a corrupt header must produce an error, not a multi-gigabyte
	// allocation. Each hyperedge has at most m-1 distinct neighbors, so the
	// adjacency table can never exceed m*(m-1) entries, and the group
	// tables cannot outnumber the adjacency entries they partition
	// (validate() enforces the exact relationships after the read).
	if maxAdj := uint64(m) * uint64(m-1); header[4] > maxAdj {
		return nil, fmt.Errorf("dal: corrupt store: %d adjacency entries exceed the %d possible for %d hyperedges", header[4], maxAdj, m)
	}
	if header[6] != header[7] {
		return nil, fmt.Errorf("dal: corrupt store: group tables disagree (%d vs %d)", header[6], header[7])
	}
	if header[6] > header[4]+1 {
		return nil, fmt.Errorf("dal: corrupt store: %d groups over %d adjacency entries", header[6], header[4])
	}
	s := &Store{h: h}
	var c csr
	if header[1] == dalVersionDeg {
		// Nothing of the old layout is kept: read it through for the checksum.
		n := 4 * int64(header[3]+header[4]+header[5]+header[6]+header[7])
		if _, err := io.CopyN(io.Discard, cr, n); err != nil {
			return nil, fmt.Errorf("dal: corrupt store: short data: %w", err)
		}
	} else {
		c.adjOff, c.adj, c.grpOff = make([]uint32, header[3]), make([]uint32, header[4]), make([]uint32, header[5])
		c.grpDeg, c.grpOvl, c.grpStart = make([]uint32, header[6]), make([]uint32, header[6]), make([]uint32, header[6])
		chunk := make([]byte, ioChunk)
		for _, arr := range c.tables() {
			for len(arr) > 0 {
				n := min(len(arr), ioChunk/4)
				if _, err := io.ReadFull(cr, chunk[:4*n]); err != nil {
					return nil, fmt.Errorf("dal: corrupt store: short data: %w", err)
				}
				for i := range arr[:n] {
					arr[i] = binary.LittleEndian.Uint32(chunk[4*i:])
				}
				arr = arr[n:]
			}
		}
	}
	// The checksum runs before structural validation so a damaged file is
	// reported as corruption rather than as a puzzling structural defect.
	if err := cr.CheckTrailer("dal"); err != nil {
		return nil, err
	}
	// The global degree index and the adaptive-container arenas are derived
	// state, so they are rebuilt here instead of being part of the file
	// format (the density rule may also evolve across builds; a stale
	// serialized window layout would pin old thresholds).
	s.buildDegreeIndex()
	if header[1] == dalVersionDeg {
		s.buildAdjacency()
	} else if err := validate(h, &c); err != nil {
		return nil, err
	} else {
		// The file's segments lie back to back, as Build writes them.
		s.adj, s.grpDeg, s.grpOvl, s.grpStart = c.adj, c.grpDeg, c.grpOvl, c.grpStart
		s.adjLive, s.grpLive = len(c.adj), len(c.grpDeg)
		s.spans = make([]span, m)
		for e := range s.spans {
			s.spans[e] = span{c.adjOff[e], c.adjOff[e+1], c.grpOff[e], c.grpOff[e+1]}
		}
	}
	s.buildContainers()
	return s, nil
}

// LoadFile reads a store from the named file.
func LoadFile(path string, h *hypergraph.Hypergraph) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, h)
}

// validate checks, in one pass over the adjacency of a file's tables,
// everything the accessors rely on, so that a file that is intact on the wire but wrong inside is
// refused with ErrInconsistent instead of panicking or mis-indexing during
// mining: offsets monotonic and closed, every segment tiled by its groups
// from its first entry on, group keys strictly ascending per hyperedge, every
// member of a group of the group's degree, ids in range and strictly
// ascending inside a group. Overlap sizes are range-checked everywhere and
// re-derived only for every hyperedge's first neighbor (one intersection a
// hyperedge: ≈ 2.5 ms of the pass's ≈ 29 on TC, where dal.load_ms is ≈ 65):
// re-deriving all of them is Build's second traversal, most of a rebuild.
func validate(h *hypergraph.Hypergraph, s *csr) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrInconsistent}, args...)...)
	}
	m := h.NumEdges()
	if s.adjOff[0] != 0 || int(s.adjOff[m]) != len(s.adj) || s.grpOff[0] != 0 || int(s.grpOff[m]) != len(s.grpDeg) {
		return bad("offset tables do not close over %d adjacency entries and %d groups", len(s.adj), len(s.grpDeg))
	}
	for e := uint32(0); e < uint32(m); e++ {
		lo, hi := s.adjOff[e], s.adjOff[e+1]
		k0, k1 := s.grpOff[e], s.grpOff[e+1]
		if lo > hi || k0 > k1 || int(hi) > len(s.adj) || int(k1) > len(s.grpDeg) {
			return bad("non-monotonic offsets at hyperedge %d", e)
		}
		if (lo == hi) != (k0 == k1) || k0 < k1 && s.grpStart[k0] != lo {
			return bad("hyperedge %d: groups do not start at its first adjacency entry", e)
		}
		for k := k0; k < k1; k++ {
			start, end := s.grpStart[k], hi
			if k+1 < k1 {
				end = s.grpStart[k+1]
			}
			if start >= end || end > hi {
				return bad("hyperedge %d: group %d does not lie inside its segment, after the previous one", e, k-k0)
			}
			if k > k0 && (s.grpDeg[k] < s.grpDeg[k-1] || s.grpDeg[k] == s.grpDeg[k-1] && s.grpOvl[k] <= s.grpOvl[k-1]) {
				return bad("hyperedge %d: group keys not strictly ascending at group %d", e, k-k0)
			}
			grp := s.adj[start:end]
			for i, o := range grp {
				if int(o) >= m || o == e || uint32(h.Degree(o)) != s.grpDeg[k] || i > 0 && o <= grp[i-1] {
					return bad("hyperedge %d: neighbor %d misplaced in group (%d, %d)", e, o, s.grpDeg[k], s.grpOvl[k])
				}
			}
			if ov := s.grpOvl[k]; ov == 0 || ov > s.grpDeg[k] || int(ov) > h.Degree(e) {
				return bad("hyperedge %d: group (%d, %d) claims an impossible overlap size", e, s.grpDeg[k], ov)
			}
		}
		if k0 < k1 {
			o := s.adj[lo]
			if got := intset.IntersectCount(h.EdgeVertices(e), h.EdgeVertices(o)); uint32(got) != s.grpOvl[k0] {
				return bad("hyperedge %d: group (%d, %d) holds neighbor %d, which overlaps it in %d vertices", e, s.grpDeg[k0], s.grpOvl[k0], o, got)
			}
		}
	}
	return nil
}
