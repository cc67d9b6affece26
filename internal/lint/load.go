package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one parsed and (best-effort) type-checked package.
type Package struct {
	// Path is the import path ("ohminer/internal/engine").
	Path string
	// ModuleDir is the root directory of the package's module ("" in the
	// standard library).
	ModuleDir string
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

// Load lists the packages that patterns match with the go command, run in
// dir: `go list -e -deps -export`, so patterns mean what they mean to go
// build (./... stops at nested modules and skips testdata directories, which
// are listed when named), and every dependency gets export data. It parses
// the non-test files go list selects for each matched package (GoFiles:
// build constraints apply) and type-checks them, resolving every import from
// that export data. A package that does not type-check — it does not
// compile, or an import cycle lies on its imports — keeps its syntax and
// records TypeError; analyzers then degrade to syntactic resolution. A
// pattern go list cannot resolve is an error. Test files (_test.go) are not
// analyzed: tests may allocate, panic, and share freely.
func Load(dir string, patterns []string) ([]*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-deps", "-export", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var list []*listed
	export := map[string]string{} // import path → export data file
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := new(listed)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("lint: go list: %v", err)
		}
		list = append(list, lp)
		export[lp.ImportPath] = lp.Export
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("lint: no export data for %s", path)
		}
		return os.Open(export[path])
	})
	var pkgs []*Package
	for _, lp := range list {
		if lp.DepOnly {
			continue
		}
		if len(lp.GoFiles) == 0 {
			if lp.Error != nil {
				return nil, fmt.Errorf("lint: %s", lp.Error.Err)
			}
			continue // test files only
		}
		pkg := &Package{Path: lp.ImportPath, Fset: fset, allowed: map[string]map[int]map[string]bool{}}
		if lp.Module != nil {
			pkg.ModuleDir = lp.Module.Dir
		}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, f)
			pkg.recordAllows(f)
		}
		if pkg.TypeError = lp.cycle(); pkg.TypeError == nil {
			pkg.typeCheck(imp)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// listed is the part of one `go list -json` package that Load reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Module     *struct{ Dir string }
	Error      *listError
	DepsErrors []*listError
}

type listError struct {
	ImportStack []string
	Err         string
}

// cycle is the import cycle go list found on the package's imports, named
// by its import stack, or nil.
func (lp *listed) cycle() error {
	for _, e := range append([]*listError{lp.Error}, lp.DepsErrors...) {
		if e != nil && strings.Contains(e.Err, "import cycle") {
			return fmt.Errorf("lint: import cycle %s", strings.Join(e.ImportStack, " → "))
		}
	}
	return nil
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

// typeCheck type-checks the package's files. A failure is recorded, never
// fatal: analyzers fall back to syntax.
func (p *Package) typeCheck(imp types.Importer) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp, Error: func(error) {}}
	tpkg, err := conf.Check(p.Path, p.Fset, p.Files, info)
	if err != nil {
		p.TypeError = err
		return
	}
	p.Types, p.Info = tpkg, info
}
