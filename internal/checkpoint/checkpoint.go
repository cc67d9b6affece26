// Package checkpoint defines the crash-safe snapshot format for long mining
// runs. A snapshot captures everything needed to continue an interrupted
// exploration with counts that are neither lost nor double-counted:
//
//   - the global frontier — the set of unexplored subtree tasks (bound
//     prefix + remaining candidate range) that partition the remaining
//     search space,
//   - the partial result counters accumulated so far (ordered embeddings
//     plus the engine's Stats counters, packed opaquely by the engine),
//   - fingerprints of the compiled plan and of the data hypergraph, so a
//     snapshot can never be resumed against a different pattern, matching
//     order, or dataset.
//
// The file format (OHMC) is versioned, little-endian, and ends in a CRC32C
// trailer over every preceding byte; internal/durable owns the trailer, the
// bounded reads the decoder uses and the atomic file replace, so torn writes
// and bit-flips are rejected at load time and a crash mid-checkpoint leaves
// the previous snapshot intact.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"ohminer/internal/durable"
)

const (
	// Magic identifies a snapshot file ("OHMC").
	Magic = 0x4f484d43
	// Version is the current snapshot format version.
	Version = 1

	// maxTasks bounds the frontier length a decoder accepts; beyond it the
	// file is declared corrupt rather than allocating unboundedly.
	maxTasks = 1 << 26
	// maxPrefix bounds a task's prefix length (pattern sizes are tiny). A
	// candidate range needs no bound beyond its uint32 length: the decoder
	// grows it as bytes arrive, so a corrupt length fails on EOF before the
	// allocation it advertises.
	maxPrefix = 1 << 12
)

// ErrCorrupt tags every snapshot decoding failure; match with errors.Is.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// Task is one unexplored subtree: continue the depth-first search at
// matching-order position Depth, binding each hyperedge in Cands, with the
// first Depth positions already bound to Prefix.
type Task struct {
	Depth  uint32
	Prefix []uint32
	Cands  []uint32
}

// Snapshot is the serializable state of an interrupted mining run.
type Snapshot struct {
	// Seq numbers the checkpoints of one run, starting at 1; a resumed run
	// continues the sequence.
	Seq uint64
	// PlanFP fingerprints the compiled plan (pattern, labels, matching
	// order, mode); resuming validates it so frontier prefixes are never
	// interpreted against a different matching order.
	PlanFP uint64
	// GraphFP is the data hypergraph's content fingerprint.
	GraphFP uint64
	// Ordered is the number of ordered embeddings counted so far. Every
	// embedding is either counted here or reachable from exactly one
	// frontier task, never both — the exactly-once invariant.
	Ordered uint64
	// Stats carries the engine's packed Stats counters (opaque to this
	// package; the engine defines the order).
	Stats []uint64
	// Frontier is the set of unexplored subtree tasks.
	Frontier []Task
}

// Sink consumes snapshots as the engine produces them (durable.FileSink
// persists them, durable.MemSink keeps the latest in memory).
type Sink = durable.Sink[*Snapshot]

// Marshal encodes the snapshot in the versioned binary format, CRC trailer
// included, into one exactly sized slice. The error is always nil; the
// signature is the one durable sinks are written against.
func (s *Snapshot) Marshal() ([]byte, error) {
	le := binary.LittleEndian
	n := 8*8 + 8*len(s.Stats) + 4
	for i := range s.Frontier {
		n += 4 * (3 + len(s.Frontier[i].Prefix) + len(s.Frontier[i].Cands))
	}
	b := make([]byte, 0, n)
	for _, v := range [...]uint64{Magic, Version, s.Seq, s.PlanFP, s.GraphFP, s.Ordered, uint64(len(s.Stats))} {
		b = le.AppendUint64(b, v)
	}
	for _, v := range s.Stats {
		b = le.AppendUint64(b, v)
	}
	b = le.AppendUint64(b, uint64(len(s.Frontier)))
	for i := range s.Frontier {
		t := &s.Frontier[i]
		b = le.AppendUint32(b, t.Depth)
		b = le.AppendUint32(b, uint32(len(t.Prefix)))
		b = le.AppendUint32(b, uint32(len(t.Cands)))
		for _, v := range t.Prefix {
			b = le.AppendUint32(b, v)
		}
		for _, v := range t.Cands {
			b = le.AppendUint32(b, v)
		}
	}
	return le.AppendUint32(b, durable.Checksum(b)), nil
}

// Unmarshal decodes a snapshot produced by Marshal, with the same
// verification Decode performs.
func Unmarshal(b []byte) (*Snapshot, error) {
	return Decode(bytes.NewReader(b))
}

// Decode reads a snapshot written by Marshal, verifying the magic, version,
// structural bounds, and the CRC trailer. Every failure wraps ErrCorrupt
// except a version from a newer format, which gets its own message.
func Decode(r io.Reader) (*Snapshot, error) {
	cr := durable.NewReader(bufio.NewReader(r))
	var head [7]uint64
	if err := cr.U64s(head[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if head[0] != Magic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, head[0])
	}
	if head[1] != Version {
		return nil, fmt.Errorf("checkpoint: unsupported snapshot version %d (want %d)", head[1], Version)
	}
	s := &Snapshot{Seq: head[2], PlanFP: head[3], GraphFP: head[4], Ordered: head[5]}
	nstats := head[6]
	if nstats > 1024 {
		return nil, fmt.Errorf("%w: absurd stats length %d", ErrCorrupt, nstats)
	}
	if nstats > 0 {
		s.Stats = make([]uint64, nstats)
		if err := cr.U64s(s.Stats); err != nil {
			return nil, fmt.Errorf("%w: short stats: %v", ErrCorrupt, err)
		}
	}
	var nt [1]uint64
	if err := cr.U64s(nt[:]); err != nil {
		return nil, fmt.Errorf("%w: short frontier header: %v", ErrCorrupt, err)
	}
	ntasks := nt[0]
	if ntasks > maxTasks {
		return nil, fmt.Errorf("%w: absurd frontier length %d", ErrCorrupt, ntasks)
	}
	if ntasks > 0 {
		s.Frontier = make([]Task, 0, min(ntasks, 4096))
	}
	for i := uint64(0); i < ntasks; i++ {
		var hdr [3]uint32
		for j := range hdr {
			var err error
			if hdr[j], err = cr.U32(); err != nil {
				return nil, fmt.Errorf("%w: short task header: %v", ErrCorrupt, err)
			}
		}
		if hdr[1] > maxPrefix {
			return nil, fmt.Errorf("%w: absurd task sizes (prefix %d, cands %d)", ErrCorrupt, hdr[1], hdr[2])
		}
		t := Task{Depth: hdr[0]}
		var err error
		if t.Prefix, err = cr.U32s(hdr[1]); err != nil {
			return nil, fmt.Errorf("%w: short task prefix: %v", ErrCorrupt, err)
		}
		if t.Cands, err = cr.U32s(hdr[2]); err != nil {
			return nil, fmt.Errorf("%w: short task candidates: %v", ErrCorrupt, err)
		}
		s.Frontier = append(s.Frontier, t)
	}
	if err := cr.CheckTrailer("checkpoint"); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}

// ReadFile loads and validates a snapshot written by a durable.FileSink.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
