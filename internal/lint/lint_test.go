package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// -update regenerates the golden files from current analyzer output:
//
//	go test ./internal/lint -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// runGolden analyzes testdata/src/<name> with the analyzer and compares
// the diagnostics against testdata/src/<name>/expect.golden.
func runGolden(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg := loadFixture(t, name)
	if pkg.TypeError != nil {
		t.Fatalf("testdata package %s must type-check, got: %v", name, pkg.TypeError)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{a})
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s:%d:%d: %s\n", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message)
	}
	got := b.String()

	goldenPath := filepath.Join(dir, "expect.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
	// Every golden file must demonstrate at least one caught violation;
	// an empty golden means the analyzer silently stopped finding its
	// target class.
	if strings.TrimSpace(got) == "" {
		t.Errorf("%s: golden run produced no diagnostics — analyzer finds nothing", name)
	}
}

// loadFixture loads testdata/src/<name> as the tree loads: through go list,
// which lists a testdata package when it is named.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkgs, err := Load(".", []string{"./testdata/src/" + name})
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("Load(./testdata/src/%s) = %d packages, %v", name, len(pkgs), err)
	}
	return pkgs[0]
}

func TestGoldenHotPathAlloc(t *testing.T)    { runGolden(t, HotPathAlloc, "hotpath") }
func TestGoldenScratchEscape(t *testing.T)   { runGolden(t, ScratchEscape, "scratch") }
func TestGoldenStampDiscipline(t *testing.T) { runGolden(t, StampDiscipline, "stamp") }
func TestGoldenNoPanicLib(t *testing.T)      { runGolden(t, NoPanicLib, "nopanic") }
func TestGoldenGuardedBy(t *testing.T)       { runGolden(t, GuardedBy, "guardedby") }
func TestGoldenAtomicMix(t *testing.T)       { runGolden(t, AtomicMix, "atomicmix") }
func TestGoldenCtxFlow(t *testing.T)         { runGolden(t, CtxFlow, "ctxflow") }
func TestGoldenGoroutineStop(t *testing.T)   { runGolden(t, GoroutineStop, "goroutinestop") }

func TestAllowedNames(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//ohmlint:allow hotpath-alloc", []string{"hotpath-alloc"}},
		{"//ohmlint:allow a, b -- because", []string{"a", "b"}},
		{"//ohmlint:allow all -- everything here is fine", []string{"all"}},
		{"// regular comment", nil},
		{"//ohmlint:hotpath", nil},
	}
	for _, c := range cases {
		got := allowedNames(c.text)
		if len(got) != len(c.want) {
			t.Errorf("allowedNames(%q) = %v, want %v", c.text, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("allowedNames(%q) = %v, want %v", c.text, got, c.want)
			}
		}
	}
}

func TestParseSuppression(t *testing.T) {
	cases := []struct {
		text   string
		names  []string
		reason string
		ok     bool
	}{
		{"//ohmlint:allow hotpath-alloc", []string{"hotpath-alloc"}, "", true},
		{"//ohmlint:allow a, b -- shared buffer, single writer", []string{"a", "b"}, "shared buffer, single writer", true},
		{"//lint:ignore ctxflow fire-and-forget by design", []string{"ctxflow"}, "fire-and-forget by design", true},
		{"//lint:ignore guardedby,atomicmix init is single-threaded", []string{"guardedby", "atomicmix"}, "init is single-threaded", true},
		{"//lint:ignore ctxflow", []string{"ctxflow"}, "", true},
		{"// regular comment", nil, "", false},
		{"//nolint:something", nil, "", false},
	}
	for _, c := range cases {
		names, reason, ok := parseSuppression(c.text)
		if ok != c.ok || reason != c.reason || len(names) != len(c.names) {
			t.Errorf("parseSuppression(%q) = (%v, %q, %v), want (%v, %q, %v)",
				c.text, names, reason, ok, c.names, c.reason, c.ok)
			continue
		}
		for i := range names {
			if names[i] != c.names[i] {
				t.Errorf("parseSuppression(%q) names = %v, want %v", c.text, names, c.names)
			}
		}
	}
}

func TestNoPanicLibSkipsCommands(t *testing.T) {
	// The analyzer exempts cmd/ and examples/ packages by import path;
	// build a fake package from the nopanic fixture under a cmd path.
	pkg := loadFixture(t, "nopanic")
	for _, path := range []string{"ohminer/cmd/ohmtool", "cmd/tool", "ohminer/examples/quickstart"} {
		pkg.Path = path
		diags := Run([]*Package{pkg}, []*Analyzer{NoPanicLib})
		if len(diags) != 0 {
			t.Errorf("no-panic-lib reported %d findings for command package %s", len(diags), path)
		}
	}
}

// TestTreeIsClean runs the full suite over this repository: the shipped
// tree must stay violation-free, exactly like `make lint`.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(pkgs, Analyzers()) {
		t.Errorf("%s", d)
	}
}

// TestLoadImportCycle: a module whose packages import each other loads in
// bounded time, and both packages carry a type error naming the cycle (the
// analyzers then fall back to syntax) instead of the loader handing the
// unchecked in-module path to the stdlib importer, which never returns.
func TestLoadImportCycle(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module cyc\n\ngo 1.21\n",
		"a/a.go": "package a\n\nimport \"cyc/b\"\n\nfunc A() int { return b.B() }\n",
		"b/b.go": "package b\n\nimport \"cyc/a\"\n\nfunc B() int { return a.A() }\n",
		"c/c.go": "package c\n\nfunc C() int { return 1 }\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	type result struct {
		pkgs []*Package
		err  error
	}
	done := make(chan result, 1)
	go func() {
		pkgs, err := Load(dir, []string{filepath.Join(dir, "a"), filepath.Join(dir, "b"), filepath.Join(dir, "c")})
		done <- result{pkgs, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Load did not return within 5 s on an import cycle")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	for _, pkg := range r.pkgs {
		if pkg.Path == "cyc/c" {
			if pkg.TypeError != nil || pkg.Types == nil {
				t.Errorf("cyc/c is off the cycle but did not type-check: %v", pkg.TypeError)
			}
			continue
		}
		if pkg.TypeError == nil || !strings.Contains(pkg.TypeError.Error(), "import cycle") ||
			!strings.Contains(pkg.TypeError.Error(), "cyc/a") || !strings.Contains(pkg.TypeError.Error(), "cyc/b") {
			t.Errorf("%s: type error %v, want one naming the cycle cyc/a ↔ cyc/b", pkg.Path, pkg.TypeError)
		}
	}
}

// TestLoadFollowsGoList: Load selects what go build would. ./... leaves a
// nested module and a directory of tests alone out, a file excluded by a
// build constraint is not analyzed, and a package that does not compile
// records a TypeError while the analyzers still find its violations by
// syntax.
func TestLoadFollowsGoList(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":          "module tmod\n\ngo 1.22\n",
		"a/a.go":          "package a\n\nfunc A(x int) { panic(x) }\n",
		"a/ignored.go":    "//go:build ignore\n\npackage a\n\nfunc I(x int) { panic(x) }\n",
		"broken/b.go":     "package broken\n\nvar bad int = \"s\"\n\nfunc B(x int) { panic(x) }\n",
		"nested/go.mod":   "module tmod/nested\n\ngo 1.22\n",
		"nested/n/n.go":   "package n\n\nfunc N(x int) { panic(x) }\n",
		"tests/t_test.go": "package tests\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
		broken := p.Path == "tmod/broken"
		if (p.TypeError != nil) != broken || (p.Types == nil) != broken {
			t.Errorf("%s: TypeError %v, Types %v", p.Path, p.TypeError, p.Types)
		}
	}
	if got := strings.Join(paths, " "); got != "tmod/a tmod/broken" {
		t.Errorf("loaded %q, want \"tmod/a tmod/broken\"", got)
	}
	var found []string
	for _, d := range Run(pkgs, []*Analyzer{NoPanicLib}) {
		found = append(found, fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line))
	}
	if got := strings.Join(found, " "); got != "a.go:3 b.go:5" {
		t.Errorf("no-panic-lib found %q, want \"a.go:3 b.go:5\"", got)
	}
}
