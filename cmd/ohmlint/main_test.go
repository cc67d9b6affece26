package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway single-package module and returns its
// root. The content is the body of pkg/pkg.go.
func writeModule(t *testing.T, content string) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module scratchmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgDir := filepath.Join(root, "pkg")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "pkg.go"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

const cleanSrc = `package pkg

func Add(a, b int) int { return a + b }
`

const detachedSrc = `package pkg

import "context"

func Detached(ctx context.Context) error {
	_ = ctx
	return context.Background().Err()
}
`

func TestExitCodeClean(t *testing.T) {
	t.Chdir(writeModule(t, cleanSrc))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run wrote to stdout: %q", stdout.String())
	}
}

func TestExitCodeFindings(t *testing.T) {
	t.Chdir(writeModule(t, detachedSrc))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "[ctxflow]") {
		t.Errorf("findings output missing [ctxflow] tag:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr missing findings count: %q", stderr.String())
	}
}

func TestExitCodeUsageErrors(t *testing.T) {
	t.Chdir(writeModule(t, cleanSrc))
	cases := [][]string{
		{"-only", "no-such-analyzer", "./..."},
		{"-skip", "no-such-analyzer", "./..."},
		{"-skip", "hotpath-alloc,scratch-escape,stamp-discipline,no-panic-lib,guardedby,atomicmix,ctxflow,goroutinestop", "./..."},
		{"-not-a-flag"},
		{"./no/such/dir/..."},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2; stderr:\n%s", args, code, stderr.String())
		}
	}
}

func TestJSONOutput(t *testing.T) {
	t.Chdir(writeModule(t, detachedSrc))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	var got []jsonDiagnostic
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("stdout is not a JSON diagnostic array: %v\n%s", err, stdout.String())
	}
	if len(got) == 0 {
		t.Fatal("JSON output has no diagnostics")
	}
	d := got[0]
	if d.Analyzer != "ctxflow" || d.Line == 0 || !strings.HasSuffix(d.File, filepath.Join("pkg", "pkg.go")) {
		t.Errorf("unexpected diagnostic: %+v", d)
	}
}

func TestOnlyAndSkipFilter(t *testing.T) {
	t.Chdir(writeModule(t, detachedSrc))

	// Restricting to an unrelated analyzer hides the ctxflow finding.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "atomicmix", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-only atomicmix: exit = %d, want 0; stdout:\n%s", code, stdout.String())
	}

	// Skipping ctxflow does the same.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-skip", "ctxflow", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-skip ctxflow: exit = %d, want 0; stdout:\n%s", code, stdout.String())
	}

	// Restricting to ctxflow keeps it.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-only", "ctxflow", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("-only ctxflow: exit = %d, want 1", code)
	}
}

func TestSuppressionsAudit(t *testing.T) {
	bare := `package pkg

import "context"

func Detached(ctx context.Context) error {
	_ = ctx
	//lint:ignore ctxflow
	return context.Background().Err()
}
`
	t.Chdir(writeModule(t, bare))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-suppressions", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("bare directive: exit = %d, want 1; stdout:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "has no reason") {
		t.Errorf("audit output missing reason complaint:\n%s", stdout.String())
	}

	justified := strings.Replace(bare, "//lint:ignore ctxflow",
		"//lint:ignore ctxflow call sites predate cancellation plumbing", 1)
	t.Chdir(writeModule(t, justified))
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-suppressions", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("justified directive: exit = %d, want 0; stdout:\n%s", code, stdout.String())
	}
}

// TestPlainDirectoryRefused: package arguments are go list patterns, so a
// directory named without ./ is an import path, which the module does not
// hold; ohmlint refuses it with exit 2 and go list's message.
func TestPlainDirectoryRefused(t *testing.T) {
	t.Chdir(writeModule(t, cleanSrc))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"pkg"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "package pkg ") {
		t.Errorf("stderr does not name the argument: %q", stderr.String())
	}
	if code := run([]string{"./pkg"}, &stdout, &stderr); code != 0 {
		t.Fatalf("./pkg: exit = %d, want 0; stderr:\n%s", code, stderr.String())
	}
}

// TestDebugReportsTypeError: a package that does not compile is still
// analyzed, by syntax, and -debug names its type error.
func TestDebugReportsTypeError(t *testing.T) {
	t.Chdir(writeModule(t, detachedSrc+"\nvar broken int = \"s\"\n"))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-debug", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "[ctxflow]") {
		t.Errorf("syntax fallback lost the ctxflow finding:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "scratchmod/pkg: type-checking degraded") {
		t.Errorf("-debug did not report the type error: %q", stderr.String())
	}
}
