package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and (best-effort) type-checked package.
type Package struct {
	// Path is the import path ("ohminer/internal/engine").
	Path string
	// Dir is the absolute source directory.
	Dir string
	// Fset is shared by every package of one Load call.
	Fset *token.FileSet
	// Files holds the non-test source files.
	Files []*ast.File
	// Types and Info are nil when type-checking failed; analyzers then
	// degrade to syntactic resolution.
	Types *types.Package
	Info  *types.Info
	// TypeError records why type-checking failed, for -debug output.
	TypeError error

	// allowed maps filename → line → analyzer names suppressed there.
	allowed map[string]map[int]map[string]bool
	// Suppressions lists every suppression directive of the package, in
	// source order, for the `ohmlint -suppressions` audit.
	Suppressions []Suppression
}

// Suppression records one suppression directive for auditing.
type Suppression struct {
	Pos       token.Position
	Directive string   // the directive spelling, e.g. "//ohmlint:allow"
	Names     []string // suppressed analyzer names
	Reason    string   // justification text; empty when omitted
}

// allows reports whether an //ohmlint:allow comment on the diagnostic's
// line (end-of-line style) or the line directly above covers the analyzer.
func (p *Package) allows(analyzer string, pos token.Position) bool {
	lines := p.allowed[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if names := lines[line]; names != nil && (names[analyzer] || names["all"]) {
			return true
		}
	}
	return false
}

// Load parses and type-checks the requested package directories plus every
// in-module package they depend on (so go/types can resolve cross-package
// references), and returns Packages for the requested dirs only. moduleDir
// must contain go.mod. Test files (_test.go) are not analyzed: tests may
// allocate, panic, and share freely.
func Load(moduleDir string, dirs []string) ([]*Package, error) {
	moduleDir, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	// Parse every package in the module once; the module is small and the
	// type checker needs local dependencies regardless of the request.
	all := map[string]*Package{} // by import path
	err = filepath.WalkDir(moduleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := d.Name()
		if path != moduleDir && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		pkg, perr := parseDir(fset, path)
		if perr != nil {
			return perr
		}
		if pkg == nil {
			return nil
		}
		rel, rerr := filepath.Rel(moduleDir, path)
		if rerr != nil {
			return rerr
		}
		if rel == "." {
			pkg.Path = modPath
		} else {
			pkg.Path = modPath + "/" + filepath.ToSlash(rel)
		}
		all[pkg.Path] = pkg
		return nil
	})
	if err != nil {
		return nil, err
	}

	typeCheck(fset, modPath, all)

	var want []*Package
	for _, dir := range dirs {
		abs, aerr := filepath.Abs(dir)
		if aerr != nil {
			return nil, aerr
		}
		found := false
		for _, pkg := range all {
			if pkg.Dir == abs {
				want = append(want, pkg)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: no Go package in %s", dir)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Path < want[j].Path })
	return want, nil
}

// parseDir parses the non-test Go files of one directory, returning nil
// when the directory holds no Go source.
func parseDir(fset *token.FileSet, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir, Fset: fset, allowed: map[string]map[int]map[string]bool{}}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if perr != nil {
			return nil, perr
		}
		pkg.Files = append(pkg.Files, f)
		pkg.recordAllows(f)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// recordAllows indexes every //ohmlint:allow and //lint:ignore comment of
// the file by line, and appends each to the suppression audit list.
func (p *Package) recordAllows(f *ast.File) {
	for _, group := range f.Comments {
		for _, c := range group.List {
			names, reason, ok := parseSuppression(c.Text)
			if !ok {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			directive := allowDirective
			if strings.HasPrefix(c.Text, ignoreDirective) {
				directive = ignoreDirective
			}
			p.Suppressions = append(p.Suppressions, Suppression{
				Pos: pos, Directive: directive, Names: names, Reason: reason,
			})
			if len(names) == 0 {
				continue
			}
			lines := p.allowed[pos.Filename]
			if lines == nil {
				lines = map[int]map[string]bool{}
				p.allowed[pos.Filename] = lines
			}
			set := lines[pos.Line]
			if set == nil {
				set = map[string]bool{}
				lines[pos.Line] = set
			}
			for _, n := range names {
				set[n] = true
			}
		}
	}
}

// typeCheck checks the module packages in dependency order. Stdlib imports
// resolve through the source importer (no export data needed); in-module
// imports resolve against already-checked packages. Failures are recorded
// per package, never fatal — analyzers fall back to syntax.
func typeCheck(fset *token.FileSet, modPath string, all map[string]*Package) {
	order, cycles := topoOrder(all)
	imp := &moduleImporter{
		std:     importer.ForCompiler(fset, "source", nil),
		modPath: modPath,
		pkgs:    map[string]*types.Package{},
		cycles:  cycles,
	}
	for _, path := range order {
		pkg := all[path]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp, Error: func(error) {}}
		tpkg, err := conf.Check(path, fset, pkg.Files, info)
		if err != nil {
			pkg.TypeError = err
			continue
		}
		pkg.Types = tpkg
		pkg.Info = info
		imp.pkgs[path] = tpkg
	}
}

// moduleImporter serves in-module packages from the checked set and
// everything else from the stdlib source importer. An in-module path that is
// not checked (it is on an import cycle, failed to type-check, or does not
// exist) is refused: the source importer would try to load it from GOROOT
// and, for a cyclic package, never return.
type moduleImporter struct {
	std     types.Importer
	modPath string
	pkgs    map[string]*types.Package
	cycles  map[string]string // package → the import cycle it is on
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		if c, ok := m.cycles[path]; ok {
			return nil, fmt.Errorf("lint: import cycle %s", c)
		}
		return nil, fmt.Errorf("lint: in-module package %s did not type-check", path)
	}
	return m.std.Import(path)
}

// topoOrder sorts the module packages so dependencies precede dependents,
// and names the import cycle (as "a → b → a") each package on one is on.
func topoOrder(all map[string]*Package) (order []string, cycles map[string]string) {
	cycles = map[string]string{}
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var stack []string
	var visit func(path string)
	visit = func(path string) {
		if state[path] != 0 {
			return
		}
		state[path] = 1
		stack = append(stack, path)
		pkg := all[path]
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				dep, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if _, ok := all[dep]; !ok {
					continue
				}
				if state[dep] == 1 {
					cyc := append(stack[slices.Index(stack, dep):len(stack):len(stack)], dep)
					for _, p := range cyc {
						if _, seen := cycles[p]; !seen {
							cycles[p] = strings.Join(cyc, " → ")
						}
					}
					continue
				}
				visit(dep)
			}
		}
		stack = stack[:len(stack)-1]
		state[path] = 2
		order = append(order, path)
	}
	paths := make([]string, 0, len(all))
	for p := range all {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		visit(p)
	}
	return order, cycles
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// LoadDir parses and type-checks a single standalone directory (no module
// context) — the golden-test entry point. Imports beyond the stdlib fail
// type-checking gracefully.
func LoadDir(dir string) (*Package, error) {
	fset := token.NewFileSet()
	pkg, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no Go package in %s", dir)
	}
	pkg.Path = filepath.Base(dir)
	all := map[string]*Package{pkg.Path: pkg}
	typeCheck(fset, "", all) // no module: every import goes to the stdlib importer
	return pkg, nil
}
