package exp

import (
	"encoding/json"
	"io"
	"os"
	"sync"
)

// CellRecord is one machine-readable measurement cell, written by ohmbench
// -json to BENCH_engine.json so the performance trajectory is tracked across
// revisions.
type CellRecord struct {
	// Exp is the experiment ID ("sched", "fig12", ...); empty for generic
	// mineSet cells recorded without experiment context.
	Exp string `json:"exp,omitempty"`
	// Variant is the engine configuration name (OHMiner, HGMatch, ...).
	Variant string `json:"variant"`
	// Dataset tags the input hypergraph; Pattern describes the mined pattern
	// (setting name, literal, or index).
	Dataset string `json:"dataset,omitempty"`
	Pattern string `json:"pattern"`
	// Workers and Scheduler identify the parallel configuration: "stealing"
	// is the production engine, "first-level" internal/baseline's driver. MaxProcs records GOMAXPROCS at run time:
	// wall-clock worker scaling is bounded by it, so a reader comparing
	// cells across machines needs it alongside Workers.
	Workers   int     `json:"workers,omitempty"`
	Scheduler string  `json:"scheduler,omitempty"`
	MaxProcs  int     `json:"gomaxprocs,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Ordered   uint64  `json:"ordered"`
	Truncated bool    `json:"truncated,omitempty"`
	// Scheduler counters from engine.Stats.
	Steals    uint64 `json:"steals"`
	Publishes uint64 `json:"publishes"`
	IdleSpins uint64 `json:"idle_spins"`
	// Kernel names the set-kernel family the cell ran on ("scalar", "fast",
	// "adaptive"); set by the kernel ablation.
	Kernel string `json:"kernel,omitempty"`
	// Per-operation container classifications from engine.Stats: how many
	// set operations ran with both operands array-backed, both
	// bitmap-windowed, or one of each.
	KernelArray  uint64 `json:"kernel_array,omitempty"`
	KernelBitmap uint64 `json:"kernel_bitmap,omitempty"`
	KernelMixed  uint64 `json:"kernel_mixed,omitempty"`
	// Symmetry-breaking ablation fields: Restricted reports whether the
	// plan carried ordering restrictions, Unique the unordered count, and
	// Embeddings the enumerated-tuple count (one per orbit when
	// restricted).
	Restricted bool   `json:"restricted,omitempty"`
	Unique     uint64 `json:"unique,omitempty"`
	Embeddings uint64 `json:"embeddings,omitempty"`
}

// Recorder collects CellRecords across experiments; attach one via
// RunOpts.Recorder. Safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	cells []CellRecord
}

// Record appends one cell.
func (r *Recorder) Record(c CellRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cells = append(r.cells, c)
	r.mu.Unlock()
}

// Cells returns a copy of everything recorded so far.
func (r *Recorder) Cells() []CellRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CellRecord, len(r.cells))
	copy(out, r.cells)
	return out
}

// WriteJSON writes the recorded cells as indented JSON.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Cells())
}

// WriteFile writes the recorded cells to the named file.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
