// Command ohmlint runs OHMiner's project-specific static analyzers over
// the module: the invariants the compiler cannot check — hot-path
// allocation freedom, worker scratch ownership, stamp-array discipline,
// no-panic library code, and the concurrency discipline suite
// (guardedby, atomicmix, ctxflow, goroutinestop). See docs/LINTING.md.
//
//	ohmlint ./...                        # whole module (the make lint entry)
//	ohmlint ./internal/engine            # one package
//	ohmlint -only guardedby ./...        # a subset of analyzers
//	ohmlint -skip ctxflow ./...          # everything but one
//	ohmlint -json ./...                  # machine-readable diagnostics
//	ohmlint -suppressions ./...          # audit directives lacking a reason
//	ohmlint -list                        # describe the analyzers
//
// Package arguments are go list patterns: a directory needs its ./ prefix.
// Exit status is 1 when any diagnostic survives suppression (or, under
// -suppressions, when any directive lacks a reason), 2 on usage or load
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ohminer/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ohmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list analyzers and exit")
		only     = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
		skip     = fs.String("skip", "", "comma-separated analyzer names to exclude")
		debug    = fs.Bool("debug", false, "report packages whose type-checking failed (analysis degrades to syntax there)")
		jsonOut  = fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		suppress = fs.Bool("suppressions", false, "audit suppression directives: any //ohmlint:allow or //lint:ignore without a reason is a finding")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*only, *skip)
	if err != nil {
		fmt.Fprintln(stderr, "ohmlint:", err)
		return 2
	}

	pkgArgs := fs.Args()
	if len(pkgArgs) == 0 {
		pkgArgs = []string{"./..."}
	}
	pkgs, err := lint.Load(".", pkgArgs)
	if err != nil {
		fmt.Fprintln(stderr, "ohmlint:", err)
		return 2
	}
	root := "" // output paths are relative to the listed packages' module
	if len(pkgs) > 0 {
		root = pkgs[0].ModuleDir
	}
	if *debug {
		for _, p := range pkgs {
			if p.TypeError != nil {
				fmt.Fprintf(stderr, "ohmlint: %s: type-checking degraded: %v\n", p.Path, p.TypeError)
			}
		}
	}

	var diags []lint.Diagnostic
	if *suppress {
		diags = auditSuppressions(pkgs)
	} else {
		diags = lint.Run(pkgs, analyzers)
	}

	if *jsonOut {
		if err := writeJSON(stdout, root, diags); err != nil {
			fmt.Fprintln(stderr, "ohmlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", relPath(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "ohmlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -only/-skip flags into the analyzer subset
// to execute.
func selectAnalyzers(only, skip string) ([]*lint.Analyzer, error) {
	analyzers := lint.Analyzers()
	if only != "" {
		analyzers = analyzers[:0:0]
		for _, name := range splitNames(only) {
			a, err := lint.ByName(name)
			if err != nil {
				return nil, err
			}
			analyzers = append(analyzers, a)
		}
	}
	if skip != "" {
		drop := map[string]bool{}
		for _, name := range splitNames(skip) {
			if _, err := lint.ByName(name); err != nil {
				return nil, err
			}
			drop[name] = true
		}
		kept := analyzers[:0:0]
		for _, a := range analyzers {
			if !drop[a.Name] {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}
	if len(analyzers) == 0 {
		return nil, fmt.Errorf("analyzer selection is empty")
	}
	return analyzers, nil
}

func splitNames(s string) []string {
	var names []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// auditSuppressions turns every suppression directive that lacks a
// justification into a diagnostic: a suppression without a reason is
// unreviewable and rots silently.
func auditSuppressions(pkgs []*lint.Package) []lint.Diagnostic {
	var diags []lint.Diagnostic
	for _, p := range pkgs {
		for _, s := range p.Suppressions {
			if s.Reason != "" {
				continue
			}
			diags = append(diags, lint.Diagnostic{
				Pos:      s.Pos,
				Analyzer: "suppression-audit",
				Message: fmt.Sprintf("%s directive for %s has no reason; append one (allow form: `-- why`, ignore form: trailing text)",
					s.Directive, strings.Join(s.Names, ",")),
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags
}

// jsonDiagnostic is the stable machine-readable shape of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(w io.Writer, moduleDir string, diags []lint.Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:     relPath(moduleDir, d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// relPath renders a diagnostic path relative to the module root when it
// lies inside it.
func relPath(moduleDir, filename string) string {
	rel, err := filepath.Rel(moduleDir, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return rel
}
