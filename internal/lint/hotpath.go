package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc enforces the engine's "allocates nothing after
// construction" contract: inside any function reachable (within its
// package) from a function marked //ohmlint:hotpath, it flags
//
//   - make/new calls,
//   - slice, map, and pointer-producing composite literals,
//   - closure literals (each evaluation allocates),
//   - sort.Slice / sort.SliceStable (closure plus interface header),
//   - append calls that can grow a fresh backing array: an append is
//     allowed only when its base is an explicit length-zero reslice
//     (buf[:0], the scratch-reuse idiom) or when its result is assigned
//     back to the exact expression it appends to (amortized growth of a
//     persistent scratch buffer),
//   - adaptive-container construction: intset.BuildSet calls and Set.Add
//     (mutation by construction) — hot code must receive prebuilt
//     containers (the DAL's window arenas) or wrap existing storage with
//     the zero-copy ArrayView/View constructors — and intset.NewMark, a
//     bitmap over a whole ID universe, which hot code allocates at most
//     once per owner, under a suppression that says so.
//
// Construction-time allocation (newWorker and friends) is fine: those
// functions are not reachable from the marked roots.
var HotPathAlloc = &Analyzer{
	Name: "hotpath-alloc",
	Doc:  "flag heap allocations in functions reachable from //ohmlint:hotpath roots",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) {
	pkg := pass.Pkg
	var roots []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && hasDirective(fn.Doc, "hotpath") {
				roots = append(roots, fn)
			}
		}
	}
	if len(roots) == 0 {
		return
	}
	graph := callGraph(pkg)

	// BFS from the roots, remembering one representative root per
	// reachable function for the diagnostic text.
	via := map[*ast.FuncDecl]*ast.FuncDecl{}
	queue := make([]*ast.FuncDecl, 0, len(roots))
	for _, r := range roots {
		via[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range graph[fn] {
			if _, ok := via[callee]; !ok {
				via[callee] = via[fn]
				queue = append(queue, callee)
			}
		}
	}

	for fn, root := range via {
		checkHotFunc(pass, fn, root)
	}
}

func checkHotFunc(pass *Pass, fn, root *ast.FuncDecl) {
	pkg := pass.Pkg
	where := funcDisplayName(fn)
	if fn != root {
		where += " (reachable from " + funcDisplayName(root) + ")"
	}

	// Appends whose result is assigned back to their own base expression
	// are amortized scratch growth; collect them first so the expression
	// walk below can skip them.
	allowedAppend := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinCall(pkg, call, "append") || len(call.Args) == 0 {
				continue
			}
			if exprString(pkg.Fset, assign.Lhs[i]) == exprString(pkg.Fset, call.Args[0]) {
				allowedAppend[call] = true
			}
		}
		return true
	})

	// Closures passed to sort.Slice are reported through the sort.Slice
	// diagnostic alone.
	sortClosure := map[ast.Node]bool{}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case isBuiltinCall(pkg, n, "make"):
				pass.Reportf(n.Pos(), "make in hot path %s", where)
			case isBuiltinCall(pkg, n, "new"):
				pass.Reportf(n.Pos(), "new in hot path %s", where)
			case isBuiltinCall(pkg, n, "append"):
				if !allowedAppend[n] && !isResetReslice(n.Args[0]) {
					pass.Reportf(n.Pos(), "append may grow a fresh backing array in hot path %s (append to buf[:0] or assign the result back to the same buffer)", where)
				}
			case isPkgCall(pkg, n, "sort", "Slice"), isPkgCall(pkg, n, "sort", "SliceStable"):
				pass.Reportf(n.Pos(), "sort.Slice allocates (closure + interface header) in hot path %s; sort a concrete slice with slices.Sort or an in-place insertion sort", where)
				for _, a := range n.Args {
					if fl, ok := a.(*ast.FuncLit); ok {
						sortClosure[fl] = true
					}
				}
			case isContainerBuild(pkg, n):
				pass.Reportf(n.Pos(), "adaptive-container construction allocates in hot path %s; build containers once (DAL window arenas; a mark per owner) and pass zero-copy views (intset.ArrayView/View)", where)
			}
		case *ast.FuncLit:
			if !sortClosure[n] {
				pass.Reportf(n.Pos(), "closure literal allocates in hot path %s", where)
			}
		case *ast.CompositeLit:
			if isAllocLitType(pkg, n) {
				pass.Reportf(n.Pos(), "composite literal allocates in hot path %s", where)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "address of composite literal escapes in hot path %s", where)
				}
			}
		}
		return true
	})
}

// isBuiltinCall reports whether call invokes the named builtin. With type
// info, the ident must resolve to the universe scope; without it, a bare
// matching ident is assumed to be the builtin.
func isBuiltinCall(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	if pkg.Info != nil {
		obj := pkg.Info.Uses[id]
		if obj == nil {
			return false
		}
		_, isBuiltin := obj.(*types.Builtin)
		return isBuiltin
	}
	return true
}

// isContainerBuild reports whether call constructs or grows an adaptive
// set container: the allocating intset constructors (BuildSet copies and
// plans a window, NewMark allocates a bitmap over an ID universe) called
// through the intset package or by name in intset itself, and the
// sorted-insert, window-rebuilding Set.Add, identified by method name on a
// receiver whose named type is Set. The zero-copy wrappers (ArrayView, View)
// are deliberately not flagged — they are the idiom hot code should use.
func isContainerBuild(pkg *Package, call *ast.CallExpr) bool {
	if isPkgCall(pkg, call, "intset", "BuildSet") || isPkgCall(pkg, call, "intset", "NewMark") {
		return true
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		// Unqualified call inside the defining package (or a test double).
		if fun.Name != "BuildSet" && fun.Name != "NewMark" {
			return false
		}
		if pkg.Info != nil {
			_, isFunc := pkg.Info.Uses[fun].(*types.Func)
			return isFunc
		}
		return true
	case *ast.SelectorExpr:
		if fun.Sel.Name != "Add" {
			return false
		}
		return receiverTypeNameIs(pkg, fun, "Set")
	}
	return false
}

// receiverTypeNameIs reports whether sel is a method selection whose
// receiver's named type (after stripping one pointer level) matches one of
// names. Without type info it conservatively reports false.
func receiverTypeNameIs(pkg *Package, sel *ast.SelectorExpr, names ...string) bool {
	if pkg.Info == nil {
		return false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	t := s.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for _, n := range names {
		if named.Obj().Name() == n {
			return true
		}
	}
	return false
}

// isPkgCall reports whether call is pkgName.funcName on an imported
// package (not a field or method of a local value named pkgName).
func isPkgCall(pkg *Package, call *ast.CallExpr, pkgName, funcName string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != funcName {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != pkgName {
		return false
	}
	if pkg.Info != nil {
		if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); !isPkg {
			return false
		}
	}
	return true
}

// isResetReslice matches buf[:0] (and buf[0:0]) — the reuse idiom whose
// append cannot allocate until the scratch capacity is exceeded, which
// amortizes to zero.
func isResetReslice(e ast.Expr) bool {
	s, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok || s.Slice3 {
		return false
	}
	isZero := func(x ast.Expr) bool {
		lit, ok := ast.Unparen(x).(*ast.BasicLit)
		return ok && lit.Kind == token.INT && lit.Value == "0"
	}
	if s.High == nil || !isZero(s.High) {
		return false
	}
	return s.Low == nil || isZero(s.Low)
}

// isAllocLitType reports whether a composite literal builds a slice or
// map (the literal kinds that heap-allocate per evaluation). Struct and
// array literals are value-typed and stay on the stack unless their
// address escapes, which the &T{...} case catches separately.
func isAllocLitType(pkg *Package, lit *ast.CompositeLit) bool {
	if pkg.Info != nil {
		if tv, ok := pkg.Info.Types[lit]; ok && tv.Type != nil {
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				return true
			}
			return false
		}
	}
	switch t := lit.Type.(type) {
	case *ast.MapType:
		return true
	case *ast.ArrayType:
		return t.Len == nil // slice literal; fixed arrays are values
	}
	return false
}
