package exp

import (
	"testing"
	"time"
)

func TestAlign(t *testing.T) {
	msec := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	a := measurement{PerPattern: msec(10, 20, 30)}
	b := measurement{PerPattern: msec(100, 200), Truncated: true}
	avgA, avgB, common, truncated := align(a, b)
	if common != 2 || !truncated {
		t.Fatalf("common=%d truncated=%v", common, truncated)
	}
	if avgA != 15*time.Millisecond || avgB != 150*time.Millisecond {
		t.Fatalf("avgs %v %v", avgA, avgB)
	}
	// Both empty.
	_, _, common, _ = align(measurement{}, measurement{})
	if common != 0 {
		t.Fatalf("common=%d", common)
	}
	// No truncation: full overlap.
	_, _, common, truncated = align(a, measurement{PerPattern: msec(1, 2, 3)})
	if common != 3 || truncated {
		t.Fatalf("common=%d truncated=%v", common, truncated)
	}
}

func TestLowerBound(t *testing.T) {
	fast := measurement{PerPattern: []time.Duration{100 * time.Millisecond}}
	s, ok := lowerBound(fast, 10*time.Second)
	if !ok || s != ">=100x" {
		t.Fatalf("%q %v", s, ok)
	}
	if _, ok := lowerBound(measurement{}, 10*time.Second); ok {
		t.Fatal("bound from empty measurement")
	}
	if _, ok := lowerBound(fast, 0); ok {
		t.Fatal("bound without budget")
	}
}

func TestCellNote(t *testing.T) {
	if got := cellNote(3, 5, true); got != " [3/5]" {
		t.Fatalf("%q", got)
	}
	if got := cellNote(5, 5, true); got != "" {
		t.Fatalf("%q", got)
	}
	if got := cellNote(3, 5, false); got != "" {
		t.Fatalf("%q", got)
	}
}

func TestFormatters(t *testing.T) {
	if ms(1500*time.Millisecond) != "1.5s" {
		t.Fatalf("%q", ms(1500*time.Millisecond))
	}
	if ms(50*time.Millisecond) != "50ms" {
		t.Fatalf("%q", ms(50*time.Millisecond))
	}
	if ms(1500*time.Microsecond) != "1.50ms" {
		t.Fatalf("%q", ms(1500*time.Microsecond))
	}
	if pct(0.5) != "50%" {
		t.Fatalf("%q", pct(0.5))
	}
	if speedup(0, 0) != "-" {
		t.Fatal("zero division not guarded")
	}
}

func TestSaltForDistinct(t *testing.T) {
	if saltFor("SB", "P3") == saltFor("SB", "P4") {
		t.Fatal("salts collide")
	}
	if saltFor("SB", "P3") != saltFor("SB", "P3") {
		t.Fatal("salt not deterministic")
	}
}

func TestSettingsForQuick(t *testing.T) {
	full := settingsFor(RunOpts{})
	if len(full) != 5 {
		t.Fatalf("full settings: %d", len(full))
	}
	quick := settingsFor(RunOpts{Quick: true})
	if len(quick) != 2 || quick[0].Count != 2 {
		t.Fatalf("quick settings: %+v", quick)
	}
	named := settingsFor(RunOpts{Quick: true}, "P3", "P4")
	if len(named) != 2 || named[0].Name != "P3" || named[1].Name != "P4" {
		t.Fatalf("named settings: %+v", named)
	}
}

func TestDatasetsFor(t *testing.T) {
	full := []string{"A", "B", "C"}
	quick := []string{"A"}
	if got := datasetsFor(RunOpts{}, full, quick); len(got) != 3 {
		t.Fatalf("%v", got)
	}
	if got := datasetsFor(RunOpts{Quick: true}, full, quick); len(got) != 1 {
		t.Fatalf("%v", got)
	}
}

func TestMineSetBudget(t *testing.T) {
	c := NewContext()
	store, err := c.Dataset("CH")
	if err != nil {
		t.Fatal(err)
	}
	set := settingsFor(RunOpts{Quick: true}, "P3")[0]
	pats, err := samplePatterns(store, set, RunOpts{Seed: 42}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []system{ohminerSys, hgmatchSys} {
		// A vanishing budget must truncate without completing anything.
		m, _, err := mineSet(store, pats, v, RunOpts{Workers: 1, CellBudget: time.Nanosecond}, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Truncated || m.Runs != 0 {
			t.Fatalf("%s truncation: %+v", v.Name, m)
		}
		// A generous budget completes all patterns.
		m2, counts, err := mineSet(store, pats, v, RunOpts{Workers: 1, CellBudget: time.Hour}, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m2.Truncated || m2.Runs != len(pats) || len(counts) != len(pats) {
			t.Fatalf("%s full run: %+v", v.Name, m2)
		}
	}
}
