package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The append log: an 8-byte header (little-endian u32 magic, u32 version)
// followed by frames
//
//	[u32 len][payload][u32 CRC-32C(payload)]
//
// (little-endian). An append is one Write of one or more frames, so a crash
// mid-append leaves a prefix of its frames and then a torn tail; the scan
// keeps every intact frame before the tear and drops the rest, while a
// complete frame whose checksum fails is corruption and is refused. The
// cluster coordinator's WAL (OHMW) and the stream's per-batch log are both
// this format under their own magic.

const (
	// LogHeaderLen is the length of the magic/version header.
	LogHeaderLen = 8
	// FrameOverhead is the length prefix plus the CRC trailer of a frame.
	FrameOverhead = 8
)

// ErrCorrupt marks a log whose header or a complete frame is invalid: not a
// torn tail, which the scan tolerates, but bytes that were never written by
// an append.
var ErrCorrupt = errors.New("durable: corrupt log")

// errWedged is the sticky failure after a failed append could not be rolled
// back: the file ends in a partial frame, and appending after it would turn
// a tolerable torn tail into mid-file corruption. Reset heals it.
var errWedged = errors.New("durable: log wedged by an unrecoverable torn write")

// LogFormat names one log format: its header and the largest payload a
// frame may claim (a larger complete frame is corruption, not a record).
type LogFormat struct {
	Name      string // in error messages: "cluster WAL", "stream log"
	Magic     uint32
	Version   uint32
	MaxRecord int64
}

func (lf LogFormat) header() []byte {
	hdr := binary.LittleEndian.AppendUint32(make([]byte, 0, LogHeaderLen), lf.Magic)
	return binary.LittleEndian.AppendUint32(hdr, lf.Version)
}

// AppendFrame appends payload to buf as one frame.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, Checksum(payload))
}

// scanLog parses the bytes of a log file and returns the payloads of its
// intact frames (sub-slices of data) and the offset where the intact prefix
// ends. Empty data, a short header and a short final frame (a crash
// mid-append) end the scan cleanly; a bad magic, or a complete frame that is
// oversized or fails its checksum, is ErrCorrupt. A different version is an
// error of its own.
func scanLog(data []byte, lf LogFormat) ([][]byte, int64, error) {
	if len(data) < LogHeaderLen {
		return nil, 0, nil // empty, or a torn header
	}
	if m := binary.LittleEndian.Uint32(data); m != lf.Magic {
		return nil, 0, fmt.Errorf("%w: %s: bad magic %#x", ErrCorrupt, lf.Name, m)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != lf.Version {
		return nil, 0, fmt.Errorf("%s version %d not supported (want %d)", lf.Name, v, lf.Version)
	}
	var recs [][]byte
	pos, end := int64(LogHeaderLen), int64(len(data))
	for pos+4 <= end {
		n := int64(binary.LittleEndian.Uint32(data[pos:]))
		if pos+FrameOverhead+n > end {
			break // torn payload or trailer (or an absurd length overrunning the file)
		}
		if n > lf.MaxRecord {
			return nil, 0, fmt.Errorf("%w: %s: record at offset %d claims %d bytes", ErrCorrupt, lf.Name, pos, n)
		}
		payload := data[pos+4 : pos+4+n]
		if Checksum(payload) != binary.LittleEndian.Uint32(data[pos+4+n:]) {
			return nil, 0, fmt.Errorf("%w: %s: record checksum mismatch at offset %d", ErrCorrupt, lf.Name, pos)
		}
		recs = append(recs, payload)
		pos += FrameOverhead + n
	}
	return recs, pos, nil
}

// ReadLog reads and scans the log at path without changing it: a missing
// file has no records.
func ReadLog(path string, lf LogFormat) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	recs, _, err := scanLog(data, lf)
	return recs, err
}

// Log is an open append log. Callers serialize its use.
type Log struct {
	f      *os.File
	w      io.Writer // f, or a fault-injection wrapper over it
	off    int64     // end of the last intact append
	wedged error
}

// OpenLog opens the log at path for appending and returns the payloads of
// its intact frames. A torn tail is truncated away; a missing, empty or
// torn-header file starts fresh with the header. When the file is created,
// its directory is fsynced, so the log — and the records acknowledged after
// their append's Fsync — cannot vanish in a power loss. wrap, when set, wraps
// the file's writer for appends (the fault-injection seam; the header is
// written to the file directly).
func OpenLog(path string, lf LogFormat, wrap func(io.Writer) io.Writer) (*Log, [][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	recs, valid, err := scanLog(data, lf)
	if err != nil {
		return nil, nil, err
	}
	l, err := openLog(path, valid, lf, wrap)
	if err != nil {
		return nil, nil, err
	}
	return l, recs, nil
}

// CreateLog opens the log at path empty: any previous content is dropped
// and the header written, with the directory fsynced when the file is new.
// Callers create a log only once its previous records are folded into a
// durable base they replay it on.
func CreateLog(path string, lf LogFormat, wrap func(io.Writer) io.Writer) (*Log, error) {
	return openLog(path, 0, lf, wrap)
}

// openLog opens path for appending with its first valid bytes kept.
func openLog(path string, valid int64, lf LogFormat, wrap func(io.Writer) io.Writer) (*Log, error) {
	_, err := os.Stat(path)
	created := errors.Is(err, os.ErrNotExist)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, w: f, off: valid}
	if wrap != nil {
		l.w = wrap(f)
	}
	if !created {
		err = f.Truncate(valid)
	}
	if err == nil && valid == 0 {
		// Write the header eagerly so every append is exactly its frames.
		_, err = f.Write(lf.header())
		l.off = LogHeaderLen
	}
	if err == nil && created {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Append writes buf — one or more frames from AppendFrame — with a single
// Write. A failed write is rolled back whole by truncating to the end of the
// last intact append, so the file never carries a partial frame before a
// later one; if even the rollback fails the log is wedged until Reset.
// Append does not sync.
func (l *Log) Append(buf []byte) error {
	if l.wedged != nil {
		return l.wedged
	}
	n, err := l.w.Write(buf)
	if err != nil {
		if n > 0 {
			if terr := l.f.Truncate(l.off); terr != nil {
				l.wedged = fmt.Errorf("%w (truncate: %v, after write error: %v)", errWedged, terr, err)
				return l.wedged
			}
		}
		return err
	}
	l.off += int64(n)
	return nil
}

// Fsync makes every append so far durable.
func (l *Log) Fsync() error { return l.f.Sync() }

// Reset truncates the log back to its header, once its records are folded
// into a durable base. It heals a wedged log.
func (l *Log) Reset() error {
	if err := l.f.Truncate(LogHeaderLen); err != nil {
		return err
	}
	l.off = LogHeaderLen
	l.wedged = nil
	return nil
}

// Size is the length of the intact log, header included.
func (l *Log) Size() int64 { return l.off }

// Wedged reports whether a failed rollback wedged the log.
func (l *Log) Wedged() bool { return l.wedged != nil }

// Close closes the file without syncing it.
func (l *Log) Close() error { return l.f.Close() }

// syncDir fsyncs a directory, making the renames and creations in it
// durable. A variable so tests can count the calls.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
