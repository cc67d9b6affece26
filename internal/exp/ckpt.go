package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ohminer/internal/checkpoint"
	"ohminer/internal/durable"
	"ohminer/internal/engine"
)

// The "ckpt" experiment measures what crash safety costs: the same workload
// mined with checkpointing off and with progressively tighter snapshot
// periods, against the invariant that the count stays exact in every cell.
// A checkpoint is a full quiesce — every worker unwinds to a saved frontier,
// the round restarts from cold deques — so overhead scales with quiesce
// frequency, not with the snapshot encode itself; the table shows where the
// period stops being free so operators can pick one deliberately.

func init() {
	register(Experiment{
		ID:    "ckpt",
		Title: "Checkpoint overhead: snapshot period vs mining time (exact counts required)",
		Run:   runCkpt,
	})
}

func runCkpt(c *Context, opts RunOpts) ([]*Table, error) {
	// fan=400 mines for ~130ms per run — long enough that even the widest
	// period below quiesces several times; quick mode trims to ~70ms runs
	// with proportionally tighter periods.
	hubs, fan := 8, 400
	repeats := 3
	periods := []time.Duration{50 * time.Millisecond, 20 * time.Millisecond, 5 * time.Millisecond}
	if opts.Quick {
		hubs, fan = 8, 250
		repeats = 2
		periods = []time.Duration{20 * time.Millisecond, 5 * time.Millisecond, time.Millisecond}
	}
	store, plan, want, err := fanInput(hubs, fan)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "ohm-ckpt-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	base := engine.Options{Workers: opts.Workers}
	baseline, err := minMine(store, plan, base, repeats)
	if err != nil {
		return nil, err
	}
	if baseline.Ordered != want {
		return nil, fmt.Errorf("ckpt: baseline counted %d, want %d", baseline.Ordered, want)
	}

	t := &Table{
		Title:  "Checkpoint overhead vs snapshot period",
		Header: []string{"period", "elapsed", "overhead", "snapshots", "bytes/snap"},
		Notes: []string{
			"same workload as the sched ablation (balanced hub-and-fan chain); counts verified exact in every cell",
			"overhead = elapsed increase over the checkpoint-free baseline; negative values are run-to-run noise",
			"a snapshot is one frontier encode + atomic file replace; the period bounds lost work after a crash",
		},
	}
	t.AddRow("off", ms(baseline.Elapsed), "—", "0", "—")
	start := time.Now()
	for _, every := range periods {
		o := base
		o.Checkpoint = &durable.FileSink[*checkpoint.Snapshot]{Path: filepath.Join(dir, "bench.ckpt")}
		o.CheckpointEvery = every
		res, err := minMine(store, plan, o, repeats)
		if err != nil {
			return nil, err
		}
		if res.Ordered != want || res.Truncated {
			return nil, fmt.Errorf("ckpt: every=%v counted %d (truncated=%v), want exactly %d",
				every, res.Ordered, res.Truncated, want)
		}
		overhead := float64(res.Elapsed-baseline.Elapsed) / float64(baseline.Elapsed)
		perSnap := "—"
		if res.Stats.Checkpoints > 0 {
			perSnap = fmt.Sprintf("%d", res.Stats.CheckpointBytes/res.Stats.Checkpoints)
		}
		t.AddRow(every.String(), ms(res.Elapsed), fmt.Sprintf("%+.1f%%", overhead*100),
			fmt.Sprintf("%d", res.Stats.Checkpoints), perSnap)
		opts.Recorder.Record(CellRecord{
			Exp:       "ckpt",
			Variant:   "OHMiner",
			Dataset:   "balanced",
			Pattern:   fmt.Sprintf("chain3 hubs=%d fan=%d every=%v", hubs, fan, every),
			Workers:   opts.Workers,
			Scheduler: "stealing",
			MaxProcs:  runtime.GOMAXPROCS(0),
			ElapsedMs: float64(res.Elapsed) / float64(time.Millisecond),
			Ordered:   res.Ordered,
			Steals:    res.Stats.Steals,
			Publishes: res.Stats.Publishes,
			IdleSpins: res.Stats.IdleSpins,
		})
	}
	progressf("    ckpt     %d periods in %v\n", len(periods), time.Since(start).Round(time.Millisecond))
	return []*Table{t}, nil
}
