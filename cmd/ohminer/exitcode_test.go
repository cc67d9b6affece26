package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestExitCodes is the end-to-end drill for the CLI's truncation contract:
// build the real ohminer binary and require that a deadline-truncated run
// exits 124 with its snapshot retained — a baseline (-variant) run too —
// that -resume completes the run with the exact full-run count and exit 0,
// and that a SIGINT-truncated run exits 130. Scripts distinguish "finished" from "truncated" by these codes
// alone, so they are part of the interface, not cosmetics.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs a child binary")
	}
	dir := t.TempDir()

	// A deterministic random-ish hypergraph big enough that the chain
	// patterns below mine for hundreds of milliseconds — room for deadlines
	// and signals to land mid-run. Plain LCG; no external inputs.
	var sb strings.Builder
	state := uint64(7)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for i := 0; i < 4000; i++ {
		k := 2 + next(3)
		for j := 0; j < k; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", next(300))
		}
		sb.WriteByte('\n')
	}
	data := filepath.Join(dir, "data.hg")
	if err := os.WriteFile(data, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(dir, "ohminer")
	buildArgs := []string{"build"}
	if raceEnabled {
		buildArgs = append(buildArgs, "-race")
	}
	buildArgs = append(buildArgs, "-o", bin, ".")
	if out, err := exec.Command("go", buildArgs...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const pat = "0 1; 1 2; 2 3; 3 4; 4 5"
	run := func(args ...string) (int, string) {
		t.Helper()
		out, err := exec.Command(bin, append([]string{"-input", data}, args...)...).CombinedOutput()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("run %v: %v\n%s", args, err, out)
		}
		return code, string(out)
	}

	// parseOrdered extracts the final count from the "variant=... ordered=N"
	// result line. LastIndex, not Index: the resume path also logs the
	// snapshot's ordered count to stderr before mining.
	parseOrdered := func(out string) uint64 {
		t.Helper()
		i := strings.LastIndex(out, "ordered=")
		var n uint64
		if i < 0 {
			t.Fatalf("no ordered count in output:\n%s", out)
		}
		if _, err := fmt.Sscanf(out[i:], "ordered=%d", &n); err != nil {
			t.Fatalf("unparseable count in output:\n%s", out)
		}
		return n
	}

	// Ground truth: the full count of the 5-edge chain pattern.
	code, out := run("-pattern", pat)
	if code != 0 {
		t.Fatalf("baseline run: exit %d\n%s", code, out)
	}
	want := parseOrdered(out)
	if want == 0 {
		t.Fatalf("baseline counted nothing:\n%s", out)
	}

	// An unknown -kernel exits 1 before mining, naming the three families.
	code, out = run("-pattern", pat, "-kernel", "bogus")
	if code != 1 || !strings.Contains(out, `unknown -kernel "bogus" (have adaptive, fast, scalar)`) {
		t.Fatalf("-kernel bogus: exit %d want 1\n%s", code, out)
	}

	// Deadline truncation: exit 124, snapshot retained, counts reported.
	// The timeout must land after the first checkpoint but before the run
	// completes; setup time varies with machine load and race
	// instrumentation, so escalate until a truncated run leaves a snapshot.
	ckpt := filepath.Join(dir, "run.ckpt")
	landed := false
	for timeout := 150 * time.Millisecond; timeout <= 20*time.Second; timeout *= 2 {
		os.Remove(ckpt)
		code, out = run("-pattern", pat, "-timeout", timeout.String(),
			"-checkpoint", ckpt, "-checkpoint-every", "20ms")
		if code == 0 {
			t.Fatalf("run completed within %v; workload too small to truncate:\n%s", timeout, out)
		}
		if code != exitDeadline {
			t.Fatalf("deadline run: exit %d want %d\n%s", code, exitDeadline, out)
		}
		if _, err := os.Stat(ckpt); err == nil {
			landed = true
			break
		}
	}
	if !landed {
		t.Fatal("no timeout produced a truncated run with a snapshot on disk")
	}
	if !strings.Contains(out, "ordered=") {
		t.Errorf("deadline run reported no partial counts:\n%s", out)
	}

	// A baseline run (-variant) stops on -timeout the same way: exit 124
	// with its partial counts. The 6-edge chain mines far longer than the
	// timeout on the first-level scheduler.
	code, out = run("-pattern", pat+"; 5 6", "-variant", "OHM-G", "-timeout", "200ms")
	if code != exitDeadline {
		t.Fatalf("-variant deadline run: exit %d want %d\n%s", code, exitDeadline, out)
	}
	if !strings.Contains(out, "variant=OHM-G") {
		t.Errorf("-variant deadline run reported no partial counts:\n%s", out)
	}

	// An estimate stops on -timeout the same way: exit 124 with the estimate
	// over the roots it finished. Unrestricted, the 6-edge chain's sample
	// mines far longer than the timeout.
	code, out = run("-pattern", pat+"; 5 6", "-estimate", "0.99", "-workers", "1", "-timeout", "200ms")
	if code != exitDeadline {
		t.Fatalf("-estimate deadline run: exit %d want %d\n%s", code, exitDeadline, out)
	}
	if !strings.Contains(out, "estimate: ordered≈") {
		t.Errorf("-estimate deadline run reported no estimate:\n%s", out)
	}

	// Resume: exit 0, exactly the full count, snapshot cleaned up.
	code, out = run("-pattern", pat, "-checkpoint", ckpt, "-resume")
	if code != 0 {
		t.Fatalf("resume run: exit %d\n%s", code, out)
	}
	if got := parseOrdered(out); got != want {
		t.Fatalf("resume run counted %d, full run counted %d — not exactly-once", got, want)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("snapshot survived clean completion (err=%v)", err)
	}

	// SIGINT truncation: exit 130, for a mine and for an estimate. The 6-edge
	// pattern mines long enough for the signal to land mid-run; if it
	// arrives during setup the run starts cancelled and still exits 130.
	for _, extra := range [][]string{nil, {"-estimate", "0.99", "-workers", "1"}} {
		cmd := exec.Command(bin, append([]string{"-input", data, "-pattern", pat + "; 5 6"}, extra...)...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(300 * time.Millisecond)
		if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		err := cmd.Wait()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("interrupted run %v exited cleanly (err=%v), want exit %d", extra, err, exitInterrupted)
		}
		if ee.ExitCode() != exitInterrupted {
			t.Fatalf("interrupted run %v: exit %d want %d", extra, ee.ExitCode(), exitInterrupted)
		}
	}
}
