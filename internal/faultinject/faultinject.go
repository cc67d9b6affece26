// Package faultinject provides deterministic failure points for robustness
// testing of the checkpoint/resume, streaming and cluster machinery. Every
// fault fires at an explicit, reproducible point — the N-th embedding, the
// K-th snapshot write — rather than at a random time, so a chaos test that
// fails replays identically. Derive maps a seed to such points when a table
// of tests wants variety without hand-picking constants.
//
// The faults model the real-world failure classes a long mining run meets:
//
//   - PanicAfter: a worker dies mid-subtree (a buggy user callback) — the
//     engine must convert it to ErrWorkerPanic, and the last durable
//     snapshot must still resume to the exact total.
//   - CrashSink: the process is killed right after the K-th snapshot
//     lands (SIGKILL, OOM) — everything since that snapshot is lost, and
//     resume must reproduce it exactly once.
//   - TornSink: a non-atomic writer tears the snapshot file mid-write
//     (power loss without the temp+rename discipline) — the loader must
//     reject the torn file as corrupt instead of resuming from garbage.
//   - NoSpaceSink: the disk is full — snapshotting fails persistently,
//     which must never affect the mining result.
//   - SlowEmbedding: a straggling worker stretches the run across many
//     checkpoint periods, maximizing quiesce/restart cycles.
//
// The snapshot sinks are one family, generic over the snapshot type (the
// engine's checkpoints instantiate CrashSink[*checkpoint.Snapshot], whose
// method set satisfies checkpoint.Sink, a durable.Sink); this package
// imports no snapshot package. The append logs — the cluster WAL and the
// stream's batch log, both a durable.Log — take their faults on the
// io.Writer seam of their appends instead: CrashWriter, TornWriter and
// NoSpaceWriter below.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ohminer/internal/durable"
)

// ErrNoSpace is the failure NoSpaceSink reports, modeling ENOSPC.
var ErrNoSpace = errors.New("faultinject: no space left on device")

// Derive maps (seed, salt) to a deterministic value in [1, max] — the
// standard way to pick fault points in a test table without hand-chosen
// constants that might all dodge the same bug.
func Derive(seed uint64, salt string, max uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(salt))
	return h.Sum64()%max + 1
}

// PanicAfter wraps an embedding callback so the n-th invocation panics —
// the deterministic stand-in for a worker crashing mid-subtree. fn may be
// nil for a callback that only counts.
func PanicAfter(n uint64, fn func([]uint32)) func([]uint32) {
	var calls atomic.Uint64
	return func(c []uint32) {
		if calls.Add(1) == n {
			// Panicking is this function's entire purpose: it simulates a
			// crashing callback so tests can prove the engine's recovery.
			panic(fmt.Sprintf("faultinject: injected worker panic at embedding %d", n)) //ohmlint:allow no-panic-lib -- injected fault
		}
		if fn != nil {
			fn(c)
		}
	}
}

// SlowEmbedding returns an embedding callback that busy-waits d per call
// (busy, not sleeping: sleep granularity would quantize the delay), slowing
// the run enough to span many checkpoint periods.
func SlowEmbedding(d time.Duration) func([]uint32) {
	return func([]uint32) {
		end := time.Now().Add(d)
		for time.Now().Before(end) {
		}
	}
}

// CrashSink forwards snapshots to Inner and invokes OnCrash exactly once,
// right after the After-th successful write — the moment a real process
// would be SIGKILLed with its freshest snapshot already durable. Writes
// after the crash point keep succeeding (the dying process may get a few
// more in before the kill lands).
type CrashSink[S any] struct {
	Inner   durable.Sink[S]
	After   int
	OnCrash func()

	mu     sync.Mutex
	writes int
}

// WriteSnapshot implements durable.Sink.
func (cs *CrashSink[S]) WriteSnapshot(s S) (int64, error) {
	n, err := cs.Inner.WriteSnapshot(s)
	if err != nil {
		return n, err
	}
	cs.mu.Lock()
	cs.writes++
	fire := cs.writes == cs.After
	cs.mu.Unlock()
	if fire && cs.OnCrash != nil {
		cs.OnCrash()
	}
	return n, nil
}

// Writes reports the number of successful snapshot writes so far.
func (cs *CrashSink[S]) Writes() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.writes
}

// TornSink persists snapshots to Path like durable.FileSink, except the
// TearAt-th and later writes are torn: only the first TearBytes bytes reach
// the file, written in place with no temp+rename discipline — the
// corruption a non-atomic writer leaves behind on power loss. Later writes
// stay torn (the process died; nothing repairs the file).
type TornSink[S durable.Marshaler] struct {
	Path      string
	TearAt    int
	TearBytes int

	mu     sync.Mutex
	writes int
}

// WriteSnapshot implements durable.Sink.
func (ts *TornSink[S]) WriteSnapshot(s S) (int64, error) {
	ts.mu.Lock()
	ts.writes++
	tear := ts.writes >= ts.TearAt
	ts.mu.Unlock()
	b, err := s.Marshal()
	if err != nil {
		return 0, err
	}
	if tear {
		b = b[:min(ts.TearBytes, len(b))]
		err = os.WriteFile(ts.Path, b, 0o644)
	} else {
		err = durable.WriteFile(ts.Path, b)
	}
	if err != nil {
		return 0, err
	}
	return int64(len(b)), nil
}

// HookAfter wraps an embedding callback so hook fires exactly once, on the
// n-th invocation (before fn) — the deterministic trigger for cluster fault
// scenarios: cutting a worker's network mid-task, cancelling its context to
// model a SIGKILL, or healing a partition at a chosen point in the run.
func HookAfter(n uint64, hook func(), fn func([]uint32)) func([]uint32) {
	var calls atomic.Uint64
	return func(c []uint32) {
		if calls.Add(1) == n && hook != nil {
			hook()
		}
		if fn != nil {
			fn(c)
		}
	}
}

// ErrPartitioned is the failure PartitionTransport reports while cut.
var ErrPartitioned = errors.New("faultinject: network partitioned")

// PartitionTransport is an http.RoundTripper modeling a network partition
// between a cluster worker and its coordinator: while cut, every request
// fails with ErrPartitioned before reaching the wire; Heal restores the
// path. The worker under test keeps mining through the partition (heartbeats
// merely error), its lease expires and is reassigned, and after Heal its
// late zombie report arrives — the exactly-once fencing scenario.
type PartitionTransport struct {
	// Inner performs real round trips while the path is up; nil means
	// http.DefaultTransport.
	Inner http.RoundTripper

	cut      atomic.Bool
	requests atomic.Uint64
	dropped  atomic.Uint64
}

// Cut severs the path: subsequent requests fail until Heal.
func (pt *PartitionTransport) Cut() { pt.cut.Store(true) }

// Heal restores the path.
func (pt *PartitionTransport) Heal() { pt.cut.Store(false) }

// Dropped reports how many requests the partition swallowed.
func (pt *PartitionTransport) Dropped() uint64 { return pt.dropped.Load() }

// Requests reports the total round trips attempted (dropped included).
func (pt *PartitionTransport) Requests() uint64 { return pt.requests.Load() }

// RoundTrip implements http.RoundTripper.
func (pt *PartitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	pt.requests.Add(1)
	if pt.cut.Load() {
		pt.dropped.Add(1)
		return nil, ErrPartitioned
	}
	inner := pt.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	return inner.RoundTrip(req)
}

// NoSpaceSink fails every write with ErrNoSpace — the full-disk scenario.
// Mining results and applied stream state stay correct in memory;
// durability (and the acknowledgements it gates) is what suffers.
type NoSpaceSink[S any] struct {
	writes atomic.Uint64
}

// WriteSnapshot implements durable.Sink.
func (ns *NoSpaceSink[S]) WriteSnapshot(S) (int64, error) {
	ns.writes.Add(1)
	return 0, ErrNoSpace
}

// Attempts reports how many writes were refused.
func (ns *NoSpaceSink[S]) Attempts() uint64 { return ns.writes.Load() }

// --- io.Writer fault points (the append-log seam) -------------------------
//
// A durable.Log issues exactly one Write per append — for the coordinator
// WAL the record, or the few records, behind one acknowledgement; for the
// stream log one applied batch — so these writers count appends, not bytes:
// "After: 3" means the fault fires around the 3rd acknowledged state
// transition. They plug into cluster.Config.WALWrap and, in the stream's
// tests, its FileSink's seam. The OnCrash/Break hooks run under the
// writer's internal locks — they must only signal (close a channel, set a
// flag), never call back into the coordinator or the miner.

// ErrKilled is the failure CrashWriter reports after its crash point.
var ErrKilled = errors.New("faultinject: process killed")

// CrashWriter models a SIGKILL between two WAL records: the first After
// writes pass through (and the After-th fires OnCrash exactly once, with
// that record already durable), then every later write fails with ErrKilled
// — the dead process gets nothing more onto the disk. The test restarts a
// coordinator from the same directory and must find exactly the first
// After records.
type CrashWriter struct {
	W       io.Writer
	After   int
	OnCrash func()

	mu     sync.Mutex
	writes int
}

// Write implements io.Writer.
func (cw *CrashWriter) Write(p []byte) (int, error) {
	cw.mu.Lock()
	if cw.writes >= cw.After {
		cw.mu.Unlock()
		return 0, ErrKilled
	}
	cw.writes++
	fire := cw.writes == cw.After
	cw.mu.Unlock()
	n, err := cw.W.Write(p)
	if fire && cw.OnCrash != nil {
		cw.OnCrash()
	}
	return n, err
}

// Writes reports how many writes reached the underlying writer.
func (cw *CrashWriter) Writes() int {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.writes
}

// TornWriter tears the At-th write: only the first KeepBytes bytes reach
// the underlying writer and the call reports failure — the partial append a
// power loss leaves mid-record. Writes after the tear fail with ErrKilled
// (the torn process is gone). The writer under test must either roll the
// torn tail back or wedge; a replayer must treat the remainder as a torn
// tail, never as valid records.
type TornWriter struct {
	W         io.Writer
	At        int
	KeepBytes int

	mu     sync.Mutex
	writes int
}

// Write implements io.Writer.
func (tw *TornWriter) Write(p []byte) (int, error) {
	tw.mu.Lock()
	tw.writes++
	writes := tw.writes
	tw.mu.Unlock()
	if writes > tw.At {
		return 0, ErrKilled
	}
	if writes < tw.At {
		return tw.W.Write(p)
	}
	keep := tw.KeepBytes
	if keep > len(p) {
		keep = len(p)
	}
	n, err := tw.W.Write(p[:keep])
	if err != nil {
		return n, err
	}
	return n, fmt.Errorf("faultinject: write torn after %d of %d bytes", n, len(p))
}

// NoSpaceWriter fails writes with ErrNoSpace while broken — the disk that
// fills up (Break) and is later freed (Heal). Unlike CrashWriter the
// process lives through it, so the writer under test should degrade,
// keep serving what it can, and recover on its own after Heal.
type NoSpaceWriter struct {
	W io.Writer

	broken  atomic.Bool
	dropped atomic.Uint64
}

// Break makes every subsequent write fail with ErrNoSpace.
func (nw *NoSpaceWriter) Break() { nw.broken.Store(true) }

// Heal restores the writer.
func (nw *NoSpaceWriter) Heal() { nw.broken.Store(false) }

// Dropped reports how many writes failed while broken.
func (nw *NoSpaceWriter) Dropped() uint64 { return nw.dropped.Load() }

// Write implements io.Writer.
func (nw *NoSpaceWriter) Write(p []byte) (int, error) {
	if nw.broken.Load() {
		nw.dropped.Add(1)
		return 0, ErrNoSpace
	}
	return nw.W.Write(p)
}
