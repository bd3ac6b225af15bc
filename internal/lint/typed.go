package lint

import (
	"go/ast"
	"go/types"
)

// ---- shared typed helpers ----
//
// Every loader fails on a type error, so resolution is total and these
// facts are authoritative. A nil result means the construct has no such
// fact (an indirect call has no static callee), never that it did not
// resolve.

// calleeOf resolves the static callee of a call: a declared function,
// a method (including one promoted through embedding), or an interface
// method. Nil for indirect calls through function values and for
// conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok { // an explicit instantiation
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// namedOf unwraps pointers and aliases down to the defined type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// typeName returns the defined type's bare name behind t ("" when t is
// not a defined type).
func typeName(t types.Type) string {
	if n := namedOf(t); n != nil {
		return n.Obj().Name()
	}
	return ""
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is (or implements) the error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// lastResultIsError reports whether f's final result is an error.
func lastResultIsError(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	return isErrorType(sig.Results().At(sig.Results().Len() - 1).Type())
}

// firstParamIs reports whether f's first parameter satisfies pred.
func firstParamIs(f *types.Func, pred func(types.Type) bool) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return pred(sig.Params().At(0).Type())
}

// isBasicString reports whether t is the plain (possibly untyped)
// string type — not a defined string type like trace.Kind.
func isBasicString(t types.Type) bool {
	b, ok := types.Unalias(t).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == "Context" &&
		n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "context"
}

// exprType returns the type of expression e (nil when e is not an
// expression, e.g. the x.(type) of a type switch).
func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// usedObject resolves an identifier or selector expression to the
// object it refers to, or nil.
func usedObject(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	}
	return nil
}

// funcDeclsOf yields every *ast.FuncDecl of the package together with
// its defined *types.Func and enclosing file.
type declFunc struct {
	file *File
	decl *ast.FuncDecl
	obj  *types.Func
}

func funcDeclsOf(pkg *Package) []declFunc {
	var out []declFunc
	for _, f := range pkg.Files {
		for _, d := range f.AST.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			out = append(out, declFunc{file: f, decl: fd, obj: obj})
		}
	}
	return out
}
