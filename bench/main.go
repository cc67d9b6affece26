// Command bench is the repository's end-to-end and per-layer benchmark; see
// README.md and ../BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var cfg runConfig
	var trace int
	var scale string
	var update, selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see -list)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs (2 is the held-out seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "how long the measured rounds take in total")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and spans in bench/out/")
	flag.StringVar(&scale, "scale", "full", "full, or tiny for a few ops per workload")
	flag.BoolVar(&update, "update", false, "rebuild catalog.json (only -workload's patterns when given) and the expected.seedN.json files")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice and compare the two sets against the bounds")
	list := flag.Bool("list", false, "print the workloads and exit")
	flag.Parse()
	if *list {
		for _, w := range workloads {
			fmt.Printf("%-14s %s\n", w.name, w.why)
		}
		return nil
	}
	cfg.trace = trace != 0
	cfg.tiny = scale == "tiny"
	if scale != "full" && scale != "tiny" {
		return fmt.Errorf("unknown -scale %q", scale)
	}
	cfg.log = os.Stdout

	// Everything the run writes lives below .bench_build/ in the working
	// directory (the checkout) and is removed again, except the trace.
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	switch {
	case update:
		return updateCatalog(cfg)
	case selfcheck:
		return selfCheck(cfg)
	}
	if cfg.trace {
		cfg.traceOut = filepath.Join(benchDir(), "out", cfg.workload+".trace.json")
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// benchDir is this package's directory, from the root of the checkout (where
// run.sh starts the binary) or from inside it (go -C bench run .).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "catalog.json")); err == nil {
		return "bench"
	}
	return "."
}

func scratchDir() (string, error) {
	base := ".bench_build"
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
