package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotalloc is the static counterpart of the TestAllocGate* dynamic
// gates: functions marked //sysvet:hotpath (the per-cycle scheduler
// phases in machine/exec.go, the sweep inner loop) run millions of
// times per simulation and hold an 8–16-alloc budget per run, so they
// must not call fmt, box concrete values into interfaces, or allocate
// closures.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "forbid fmt calls, interface boxing, and closure allocation " +
		"in functions marked //sysvet:hotpath",
	Run: runHotalloc,
}

func runHotalloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !pass.Dirs.Hotpath(pass.Fset, fd) {
				continue
			}
			checkHotBody(pass, fd)
		}
	}
}

func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	var results *types.Tuple
	if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
		results = obj.Type().(*types.Signature).Results()
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(s.Pos(), "hot path %s allocates a closure", fd.Name.Name)
			return false
		case *ast.CallExpr:
			checkHotCall(pass, fd, s)
		case *ast.AssignStmt:
			if s.Tok != token.ASSIGN || len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i := range s.Lhs {
				lt := pass.Info.TypeOf(s.Lhs[i])
				if boxes(pass, lt, s.Rhs[i]) {
					pass.Reportf(s.Rhs[i].Pos(), "hot path %s boxes %s into %s", fd.Name.Name, typeName(pass, s.Rhs[i]), lt)
				}
			}
		case *ast.ValueSpec:
			if s.Type == nil {
				return true
			}
			lt := pass.Info.TypeOf(s.Type)
			for _, v := range s.Values {
				if boxes(pass, lt, v) {
					pass.Reportf(v.Pos(), "hot path %s boxes %s into %s", fd.Name.Name, typeName(pass, v), lt)
				}
			}
		case *ast.ReturnStmt:
			if results == nil || len(s.Results) != results.Len() {
				return true
			}
			for i, r := range s.Results {
				if boxes(pass, results.At(i).Type(), r) {
					pass.Reportf(r.Pos(), "hot path %s boxes %s into returned %s", fd.Name.Name, typeName(pass, r), results.At(i).Type())
				}
			}
		}
		return true
	})
}

// checkHotCall flags fmt calls, interface conversions, and arguments
// boxed into interface parameters.
func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if base, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.Info.ObjectOf(base).(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				pass.Reportf(call.Pos(), "hot path %s calls fmt.%s", fd.Name.Name, sel.Sel.Name)
				return
			}
		}
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Explicit conversion T(x): boxing when T is an interface.
		target := tv.Type
		if len(call.Args) == 1 && boxes(pass, target, call.Args[0]) {
			pass.Reportf(call.Pos(), "hot path %s converts %s to interface %s", fd.Name.Name, typeName(pass, call.Args[0]), target)
		}
		return
	}
	if tv.IsBuiltin() {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // pass-through slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(pass, pt, arg) {
			pass.Reportf(arg.Pos(), "hot path %s boxes %s into %s parameter of %s", fd.Name.Name, typeName(pass, arg), pt, callName(call))
		}
	}
}

// boxes reports whether assigning expr to a target of type dst
// converts a concrete value into an interface — an allocation on
// almost every such conversion.
func boxes(pass *Pass, dst types.Type, expr ast.Expr) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	return !types.IsInterface(tv.Type)
}

func typeName(pass *Pass, expr ast.Expr) string {
	if t := pass.Info.TypeOf(expr); t != nil {
		return t.String()
	}
	return "value"
}

func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "call"
}
