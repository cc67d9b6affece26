// Package durable is the one layer that knows how bytes reach a file
// durably and come back verified. Every on-disk format of this repository
// goes through it:
//
//   - the CRC32-Castagnoli trailer: the dal store (OHMD), the checkpoint
//     snapshot (OHMC), the stream snapshot (OHMT) and the append logs all end
//     their files or records in a little-endian CRC32C over the preceding
//     bytes, so torn writes and bit-flips are refused at load time instead of
//     surfacing as silently wrong mining results;
//   - the bounded little-endian reads their decoders share (Reader.U32,
//     U64s, U32s), which grow their results as bytes arrive so a corrupt
//     length fails on a short read before the allocation it advertises;
//   - WriteFile, the one atomic replace: temp file, one Write, fsync,
//     rename, and an fsync of the directory so the rename survives a power
//     loss;
//   - Log, the one append log (log.go): CRC-framed records behind a
//     magic/version header, one Write per append rolled back on failure, a
//     scan that keeps the intact prefix and truncates a torn tail, and the
//     io.Writer seam faults are injected through. The cluster WAL and the
//     stream's per-batch log are both one;
//   - the snapshot sinks FileSink and MemSink, over any type that marshals
//     itself.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Writer tees everything written through it into a running CRC32C.
type Writer struct {
	W   io.Writer
	sum uint32
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{W: w} }

func (w *Writer) Write(p []byte) (int, error) {
	n, err := w.W.Write(p)
	w.sum = crc32.Update(w.sum, castagnoli, p[:n])
	return n, err
}

// WriteTrailer appends the current CRC as a little-endian uint32 to the
// underlying writer (the trailer itself is not folded into the sum).
func (w *Writer) WriteTrailer() error {
	_, err := w.W.Write(binary.LittleEndian.AppendUint32(nil, w.sum))
	return err
}

// Reader tees everything read through it into a running CRC32C and decodes
// little-endian fields through one reusable buffer.
type Reader struct {
	R   io.Reader
	sum uint32
	buf [1 << 12]byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{R: r} }

func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.R.Read(p)
	r.sum = crc32.Update(r.sum, castagnoli, p[:n])
	return n, err
}

// U32 reads one uint32.
func (r *Reader) U32() (uint32, error) {
	if _, err := io.ReadFull(r, r.buf[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(r.buf[:4]), nil
}

// U64s fills dst, a buffer at a time.
func (r *Reader) U64s(dst []uint64) error {
	for len(dst) > 0 {
		part := r.buf[:8*min(len(dst), len(r.buf)/8)]
		if _, err := io.ReadFull(r, part); err != nil {
			return err
		}
		for i := 0; i < len(part); i += 8 {
			dst[i/8] = binary.LittleEndian.Uint64(part[i:])
		}
		dst = dst[len(part)/8:]
	}
	return nil
}

// U32s reads n uint32s a buffer at a time, growing the result as bytes
// actually arrive, so a corrupt length cannot allocate unbounded memory
// before the read fails. n == 0 returns nil.
func (r *Reader) U32s(n uint32) ([]uint32, error) {
	if n == 0 {
		return nil, nil
	}
	out := make([]uint32, 0, min(int(n), len(r.buf)/4))
	for len(out) < int(n) {
		part := r.buf[:4*min(int(n)-len(out), len(r.buf)/4)]
		if _, err := io.ReadFull(r, part); err != nil {
			return nil, err
		}
		for i := 0; i < len(part); i += 4 {
			out = append(out, binary.LittleEndian.Uint32(part[i:]))
		}
	}
	return out, nil
}

// CheckTrailer reads the 4-byte little-endian trailer from the underlying
// reader (bypassing the sum) and compares it with the CRC of everything read
// so far; what names the format in error messages ("dal", "checkpoint").
func (r *Reader) CheckTrailer(what string) error {
	want := r.sum
	if _, err := io.ReadFull(r.R, r.buf[:4]); err != nil {
		return fmt.Errorf("%s: missing checksum trailer: %w", what, err)
	}
	if got := binary.LittleEndian.Uint32(r.buf[:4]); got != want {
		return fmt.Errorf("%s: corrupt payload: checksum mismatch (file %#x, computed %#x)", what, got, want)
	}
	return nil
}

// WriteFile atomically replaces path with data: one Write to a temp file in
// the same directory, fsync, close, rename, then an fsync of the directory.
// A crash at any point leaves either the previous file or the new one, and
// once WriteFile returns nil a power loss cannot bring the previous one
// back. The temp file is removed on every failure before the rename.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
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
		return err
	}
	return syncDir(dir)
}

// Marshaler is a snapshot that encodes itself, checksum trailer included.
type Marshaler interface {
	Marshal() ([]byte, error)
}

// Sink consumes snapshots as they are produced and reports the bytes
// persisted. Implementations must be safe for sequential calls; a failed
// write must leave any previously persisted snapshot intact.
type Sink[S any] interface {
	WriteSnapshot(s S) (int64, error)
}

// FileSink persists every snapshot to Path with WriteFile, atomically
// replacing the previous one.
type FileSink[S Marshaler] struct {
	Path string
}

// WriteSnapshot implements Sink.
func (fs *FileSink[S]) WriteSnapshot(s S) (int64, error) {
	b, err := s.Marshal()
	if err == nil {
		err = WriteFile(fs.Path, b)
	}
	if err != nil {
		return 0, err
	}
	return int64(len(b)), nil
}

// MemSink retains the latest snapshot, already encoded, in memory: the sink
// for callers that consume the final state programmatically instead of
// persisting it (a cluster worker spills its engine's final-stop snapshot
// back to the coordinator as the lease's remainder), and the test double
// standing in for durable storage.
type MemSink[S Marshaler] struct {
	mu     sync.Mutex
	data   []byte
	writes int
}

// WriteSnapshot implements Sink.
func (ms *MemSink[S]) WriteSnapshot(s S) (int64, error) {
	b, err := s.Marshal()
	if err != nil {
		return 0, err
	}
	ms.mu.Lock()
	ms.data = b
	ms.writes++
	ms.mu.Unlock()
	return int64(len(b)), nil
}

// Bytes returns the latest encoded snapshot (nil when nothing was written).
func (ms *MemSink[S]) Bytes() []byte {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.data
}

// Writes reports how many snapshots the sink received.
func (ms *MemSink[S]) Writes() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.writes
}
