package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ohminer/internal/checkpoint"
)

// This file implements the work-stealing subtree scheduler. The paper's
// engine (Sec. 4.4) distributes only the candidates of the first pattern
// hyperedge over threads, which serializes a run whose work hangs off a few
// skewed first-edge subtrees — the load imbalance HGMatch's dynamic task
// splitting targets. Here every worker owns a bounded deque of subtree
// tasks; near the top of the tree a busy worker publishes its untouched
// sibling candidate ranges, and idle workers steal them instead of exiting,
// so Workers > |first candidates| is useful and skew no longer serializes.
//
// DFS semantics are preserved: a task is a (prefix, candidate range)
// continuation, and whoever executes it explores exactly the subtrees the
// publisher would have explored, in the same per-subtree depth-first order.
// Only the interleaving across subtrees changes, which the embedding counts
// are invariant to. A task is a checkpoint.Task, the frontier's wire type.
// Its slices are owned by whatever holds it (a deque slot or a worker's run
// buffer) and copied on every hand-off — worker scratch never crosses
// goroutines.

const (
	// defaultSplitDepth is the number of top tree levels at which sibling
	// ranges are published (positions 0 and 1). Deeper subtrees are cheap
	// enough that publication overhead outweighs the balance gain.
	defaultSplitDepth = 2
	// defaultSplitThreshold is the minimum remaining candidate count at a
	// splittable level before half of it is worth publishing.
	defaultSplitThreshold = 4
	// dequeCap bounds each worker's deque; a full deque just means the
	// worker keeps the remaining range for itself.
	dequeCap = 32
)

// publishDepth and publishThreshold are the split parameters every run
// uses: defaultSplitDepth and defaultSplitThreshold. They are variables only
// so that tests can make small inputs publish and steal (setSplit).
var publishDepth, publishThreshold = defaultSplitDepth, defaultSplitThreshold

// deque is a bounded work-stealing deque of tasks. The owner pushes and
// pops at the tail (LIFO keeps the deepest, most cache-warm task local);
// thieves take from the head (FIFO hands over the shallowest task, i.e. the
// largest subtree, minimizing steal frequency). Publication is rare — only
// near the root of the search tree — so a mutex per operation costs nothing
// measurable, and every slot's buffers are reused across the run.
type deque struct {
	mu sync.Mutex
	// ring holds the queued tasks; guarded by mu.
	ring [dequeCap]checkpoint.Task
	head uint64 // next slot a thief takes; tasks live in [head, tail); guarded by mu
	tail uint64 // next free slot for the owner; guarded by mu
}

// push copies (depth, prefix, cands) into the deque; it reports false when
// the deque is full. Called only by the owning worker.
func (d *deque) push(depth int, prefix, cands []uint32) bool {
	d.mu.Lock()
	if d.tail-d.head == dequeCap {
		d.mu.Unlock()
		return false
	}
	sl := &d.ring[d.tail%dequeCap]
	sl.Depth = uint32(depth)
	sl.Prefix = append(sl.Prefix[:0], prefix...)
	sl.Cands = append(sl.Cands[:0], cands...)
	d.tail++
	d.mu.Unlock()
	return true
}

// pop moves the most recently pushed task into dst (copying, so the slot
// can be reused immediately). Called only by the owning worker.
func (d *deque) pop(dst *checkpoint.Task) bool {
	d.mu.Lock()
	if d.tail == d.head {
		d.mu.Unlock()
		return false
	}
	d.tail--
	sl := &d.ring[d.tail%dequeCap]
	copyTask(dst, sl)
	d.mu.Unlock()
	return true
}

// steal moves the oldest task into dst. Called by other workers.
func (d *deque) steal(dst *checkpoint.Task) bool {
	d.mu.Lock()
	if d.tail == d.head {
		d.mu.Unlock()
		return false
	}
	sl := &d.ring[d.head%dequeCap]
	copyTask(dst, sl)
	d.head++
	d.mu.Unlock()
	return true
}

// drainTasks appends a copy of every queued task to out and empties the
// deque — frontier collection after a quiesce (checkpoint.go). Copies are
// deliberate: the slot buffers belong to the deque and a next round would
// overwrite them.
func (d *deque) drainTasks(out []checkpoint.Task) []checkpoint.Task {
	d.mu.Lock()
	for ; d.head != d.tail; d.head++ {
		var t checkpoint.Task
		copyTask(&t, &d.ring[d.head%dequeCap])
		out = append(out, t)
	}
	d.mu.Unlock()
	return out
}

// scheduler shares the deques and the termination state of one mining run.
type scheduler struct {
	deques []deque
	// overflow holds seeded tasks that did not fit the bounded deques — a
	// resumed or post-quiesce frontier can be arbitrarily long. Workers
	// fall back to it when their own deque is empty and nothing is
	// stealable.
	ovMu     sync.Mutex
	overflow []checkpoint.Task // guarded by ovMu
	// pending counts unfinished tasks: seeded root tasks plus every
	// publication, decremented when a task's whole subtree is done. A task
	// is counted before it becomes visible in any deque, so pending == 0
	// proves no queued task exists and no running task can publish more —
	// the termination condition for idle workers.
	pending atomic.Int64
}

func newScheduler(workers int) *scheduler {
	return &scheduler{deques: make([]deque, workers)}
}

// seedTasks distributes a frontier — a fresh run's partitioned first
// candidates, a resumed snapshot's or lease's tasks, or a post-quiesce
// remainder — over the deques round-robin; it is the only way tasks enter a
// round. Tasks beyond the bounded deque capacity land in the overflow list,
// which workers drain once the deques run dry. The task slices stay owned by
// the caller's frontier (never mutated during a round) until a worker copies
// them into its run buffer.
func (s *scheduler) seedTasks(tasks []checkpoint.Task) {
	workers := len(s.deques)
	s.ovMu.Lock()
	for i := range tasks {
		t := &tasks[i]
		if !s.deques[i%workers].push(int(t.Depth), t.Prefix, t.Cands) {
			s.overflow = append(s.overflow, *t)
		}
	}
	s.ovMu.Unlock()
	s.pending.Store(int64(len(tasks)))
}

// takeOverflow copies one overflow task into dst; it reports false when the
// overflow list is empty.
func (s *scheduler) takeOverflow(dst *checkpoint.Task) bool {
	s.ovMu.Lock()
	n := len(s.overflow)
	if n == 0 {
		s.ovMu.Unlock()
		return false
	}
	copyTask(dst, &s.overflow[n-1])
	s.overflow = s.overflow[:n-1]
	s.ovMu.Unlock()
	return true
}

// run is a worker's scheduling loop: drain the own deque, then steal from
// peers, then spin briefly until new work is published or the run ends.
// It is a hot-path root: nothing reachable from here may allocate in steady
// state (deque hand-offs reuse slot and run buffers).
//
//ohmlint:hotpath
func (w *worker) run() {
	s := w.sched
	own := &s.deques[w.id]
	backoff := 0
	for {
		if w.e.stopped.Load() {
			return
		}
		if own.pop(&w.task) || w.trySteal() || s.takeOverflow(&w.task) {
			backoff = 0
			w.runTask(&w.task)
			s.pending.Add(-1)
			continue
		}
		if s.pending.Load() == 0 {
			return
		}
		w.stats.IdleSpins++
		if backoff++; backoff > 16 {
			time.Sleep(20 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// trySteal scans the peers round-robin starting after the own deque and
// copies the first available task into the worker's run buffer.
func (w *worker) trySteal() bool {
	s := w.sched
	n := len(s.deques)
	for k := 1; k < n; k++ {
		if s.deques[(w.id+k)%n].steal(&w.task) {
			w.stats.Steals++
			return true
		}
	}
	return false
}

// copyTask copies src into dst, reusing dst's buffers.
func copyTask(dst, src *checkpoint.Task) {
	dst.Depth = src.Depth
	dst.Prefix = append(dst.Prefix[:0], src.Prefix...)
	dst.Cands = append(dst.Cands[:0], src.Cands...)
}

// runTask executes a task: rebind the prefix and explore the range. Every
// range this engine publishes, checkpoints or leases is a list step or
// firstCandidates already filtered, and a snapshot cut under another plan is
// refused by its fingerprint, so the range is explored as it is.
func (w *worker) runTask(t *checkpoint.Task) {
	copy(w.c[:t.Depth], t.Prefix)
	w.explore(int(t.Depth), t.Cands)
}

// publish copies the current prefix and an untouched sibling candidate
// range into the worker's own deque for thieves; it reports false when the
// deque is full (the caller then keeps the range).
func (w *worker) publish(depth int, rest []uint32) bool {
	s := w.sched
	// Count the task before it becomes stealable so pending never
	// undercounts (see scheduler.pending).
	s.pending.Add(1)
	if !s.deques[w.id].push(depth, w.c[:depth], rest) {
		s.pending.Add(-1)
		return false
	}
	w.stats.Publishes++
	return true
}
