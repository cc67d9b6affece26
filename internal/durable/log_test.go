package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var testLog = LogFormat{Name: "test log", Magic: 0x474f4c54, Version: 1, MaxRecord: 1 << 10}

// countDirSyncs counts syncDir calls for the rest of the test.
func countDirSyncs(t *testing.T) *int {
	t.Helper()
	n, orig := new(int), syncDir
	syncDir = func(dir string) error { *n++; return orig(dir) }
	t.Cleanup(func() { syncDir = orig })
	return n
}

func appendRecords(t *testing.T, l *Log, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(AppendFrame(nil, []byte(r))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Fsync(); err != nil {
		t.Fatal(err)
	}
}

func payloads(recs [][]byte) string { return fmt.Sprintf("%q", recs) }

// TestLogCreateSyncsDirectory: creating a log file fsyncs its directory, so
// the file — and the records acknowledged after their append's Sync — cannot
// disappear with a power loss; reopening an existing log does not.
func TestLogCreateSyncsDirectory(t *testing.T) {
	syncs := countDirSyncs(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "a.log")
	l, recs, err := OpenLog(path, testLog, nil)
	if err != nil || len(recs) != 0 {
		t.Fatalf("fresh open: %v, %d records", err, len(recs))
	}
	if *syncs != 1 {
		t.Fatalf("fresh OpenLog synced the directory %d times, want 1", *syncs)
	}
	appendRecords(t, l, "one")
	l.Close()

	l, recs, err = OpenLog(path, testLog, nil)
	if err != nil || payloads(recs) != payloads([][]byte{[]byte("one")}) {
		t.Fatalf("reopen: %v, %s", err, payloads(recs))
	}
	l.Close()
	if *syncs != 1 {
		t.Fatalf("reopening an existing log synced the directory (%d syncs)", *syncs)
	}

	l, err = CreateLog(filepath.Join(dir, "b.log"), testLog, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, err = CreateLog(path, testLog, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if *syncs != 2 {
		t.Fatalf("CreateLog of a new and of an existing file: %d directory syncs, want 2", *syncs)
	}
	if recs, err := ReadLog(path, testLog); err != nil || len(recs) != 0 {
		t.Fatalf("CreateLog kept %d records (%v)", len(recs), err)
	}
}

// TestLogTornTail: a log cut at every byte of its last frame opens to the
// frames before it and is truncated back to them, so the next append lands
// where the torn one started.
func TestLogTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.log")
	l, _, err := OpenLog(path, testLog, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, l, "alpha", "beta", "gamma")
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := len(full) - FrameOverhead - len("gamma")
	for cut := lastStart; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := OpenLog(path, testLog, nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if payloads(recs) != payloads([][]byte{[]byte("alpha"), []byte("beta")}) {
			t.Fatalf("cut %d: records %s", cut, payloads(recs))
		}
		appendRecords(t, l, "delta")
		l.Close()
		if recs, err := ReadLog(path, testLog); err != nil || len(recs) != 3 || string(recs[2]) != "delta" {
			t.Fatalf("cut %d: append after the torn tail reads back %s (%v)", cut, payloads(recs), err)
		}
	}
	// A torn header is a fresh log.
	if err := os.WriteFile(path, full[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := OpenLog(path, testLog, nil)
	if err != nil || len(recs) != 0 || l.Size() != LogHeaderLen {
		t.Fatalf("torn header: %v, %d records, size %d", err, len(recs), l.Size())
	}
	l.Close()
}

// TestLogCorruptFrameRefused: a flipped byte inside a complete frame, an
// oversized complete frame and a bad magic are ErrCorrupt, not a torn tail;
// another version is refused without being called corrupt.
func TestLogCorruptFrameRefused(t *testing.T) {
	good := AppendFrame(AppendFrame(testLog.header(), []byte("alpha")), []byte("beta"))
	second := LogHeaderLen + FrameOverhead + len("alpha") // where beta's frame starts
	for i := LogHeaderLen; i < len(good); i++ {
		bad := bytes.Clone(good)
		bad[i] ^= 0x10
		recs, _, err := scanLog(bad, testLog)
		switch {
		case i < LogHeaderLen+4 || (i >= second && i < second+4):
			// A flipped length prefix makes its frame overrun the file: a
			// torn tail after the frames before it.
			if before := (i - LogHeaderLen) / (second - LogHeaderLen); err != nil || len(recs) != before {
				t.Fatalf("flip in a length at %d: %s, %v; want the %d frames before it", i, payloads(recs), err, before)
			}
		case !errors.Is(err, ErrCorrupt):
			t.Fatalf("flip at %d: %v (records %s)", i, err, payloads(recs))
		}
	}
	big := AppendFrame(testLog.header(), make([]byte, testLog.MaxRecord+1))
	if _, _, err := scanLog(big, testLog); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized frame: %v", err)
	}
	bad := bytes.Clone(good)
	bad[0] ^= 1
	if _, _, err := scanLog(bad, testLog); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}
	v2 := testLog
	v2.Version = 2
	if _, _, err := scanLog(good, v2); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("other version: %v", err)
	}
}

// TestLogAppendRollsBack: an append that fails part-way is truncated away,
// so the next good append follows the last intact one; Reset empties the log
// to its header.
func TestLogAppendRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rb.log")
	var tear bool
	l, _, err := OpenLog(path, testLog, func(w io.Writer) io.Writer {
		return writerFunc(func(p []byte) (int, error) {
			if tear {
				n, _ := w.Write(p[:6])
				return n, errors.New("torn")
			}
			return w.Write(p)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendRecords(t, l, "one")
	size := l.Size()
	tear = true
	if err := l.Append(AppendFrame(nil, []byte("two"))); err == nil {
		t.Fatal("torn append reported success")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != size || l.Size() != size || l.Wedged() {
		t.Fatalf("after a torn append: file %v (%v), log %d, want %d, wedged %v", fi.Size(), err, l.Size(), size, l.Wedged())
	}
	tear = false
	appendRecords(t, l, "three")
	if recs, err := ReadLog(path, testLog); err != nil || payloads(recs) != payloads([][]byte{[]byte("one"), []byte("three")}) {
		t.Fatalf("records %s (%v)", payloads(recs), err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if recs, err := ReadLog(path, testLog); err != nil || len(recs) != 0 || l.Size() != LogHeaderLen {
		t.Fatalf("after Reset: %d records (%v), size %d", len(recs), err, l.Size())
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// vetoWriter is a writer wrapper that answers every fsync with veto.
type vetoWriter struct {
	io.Writer
	veto  error
	calls int
}

func (v *vetoWriter) VetoSync() error { v.calls++; return v.veto }

// TestLogFsyncVeto: Fsync asks the writer wrapper first, once per call, and
// a veto is Fsync's error; without one it syncs.
func TestLogFsyncVeto(t *testing.T) {
	vw := &vetoWriter{veto: errors.New("eio")}
	l, err := CreateLog(filepath.Join(t.TempDir(), "v.log"), testLog, func(w io.Writer) io.Writer { vw.Writer = w; return vw })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(AppendFrame(nil, []byte("one"))); err != nil {
		t.Fatal(err)
	}
	if err := l.Fsync(); err != vw.veto {
		t.Fatalf("vetoed Fsync: %v", err)
	}
	vw.veto = nil
	if err := l.Fsync(); err != nil || vw.calls != 2 {
		t.Fatalf("Fsync: %v after %d vetoes asked, want nil after 2", err, vw.calls)
	}
}

// FuzzLogScan: the scan never panics, and whatever it accepts is a
// fixpoint — the intact prefix scans to the same records, and re-framing
// those records rebuilds the prefix byte for byte.
func FuzzLogScan(f *testing.F) {
	f.Add([]byte{})
	f.Add(testLog.header())
	f.Add(AppendFrame(AppendFrame(testLog.header(), []byte("alpha")), nil))
	f.Add(AppendFrame(testLog.header(), []byte("torn"))[:LogHeaderLen+6])
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, err := scanLog(data, testLog)
		if err != nil {
			return
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("intact prefix %d outside [0, %d]", valid, len(data))
		}
		again, valid2, err := scanLog(data[:valid], testLog)
		if err != nil || valid2 != valid || payloads(again) != payloads(recs) {
			t.Fatalf("prefix rescans to %s/%d (%v), want %s/%d", payloads(again), valid2, err, payloads(recs), valid)
		}
		if valid == 0 {
			return
		}
		rebuilt := testLog.header()
		for _, r := range recs {
			rebuilt = AppendFrame(rebuilt, r)
		}
		if !bytes.Equal(rebuilt, data[:valid]) {
			t.Fatalf("re-framed records differ from the intact prefix")
		}
	})
}
