package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runSelf runs one workload in a process of its own, as the driver does (peak
// RSS is per process), and parses the result line.
func runSelf(cfg runConfig, workload string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

// selfCheck runs the full set of workloads twice, back to back, and compares
// the two sets metric by metric against the bounds: the benchmark's own
// noise must stay inside what it gates.
func selfCheck(cfg runConfig) error {
	var sets [2]map[string]result
	for s := range sets {
		sets[s] = map[string]result{}
		for _, w := range workloads {
			res, err := runSelf(cfg, w.name)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d ops failed", w.name, res.Failed, res.Attempted)
			}
			sets[s][w.name] = res
			fmt.Fprintf(cfg.log, "# set %d: %s done\n", s+1, w.name)
		}
	}
	fmt.Fprintf(cfg.log, "%-14s %-12s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	over := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][w.name].Metrics[d.Name].Value, sets[1][w.name].Metrics[d.Name].Value
			diff := (b - a) / a
			mark := ""
			if math.Abs(diff) > d.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Fprintf(cfg.log, "%-14s %-12s %12.4f %12.4f %+7.1f%% %5.0f%%%s\n", w.name, d.Name, a, b, 100*diff, 100*d.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d of %d metrics moved by more than their bound between two runs of the same code", over, len(workloads)*len(endToEnd))
	}
	return nil
}
