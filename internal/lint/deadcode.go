package lint

// deadcode.go is the dead-code rule (DESIGN.md §7.2). A function of a
// package under an internal/ path element can be called by this module
// alone, so one that no non-test file of the module reaches exists only for
// tests. Reach is a use outside the function's own declaration, its name in
// a build-excluded file, an implementation of a reached interface method, a
// method the standard library finds through any or behind one of its
// interfaces, or a method a package outside internal/ re-exports. It is one
// step, not a walk from main: a helper only a dead function calls shows up
// once that function is gone.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// throughAny are the methods the standard library finds on a value it holds
// as any (fmt, errors, encoding/json, encoding), by name and signature.
var throughAny = map[string]string{
	"String":          "()(string)",
	"GoString":        "()(string)",
	"Error":           "()(string)",
	"Format":          "(fmt.State, rune)()",
	"MarshalJSON":     "()([]byte, error)",
	"UnmarshalJSON":   "([]byte)(error)",
	"MarshalText":     "()([]byte, error)",
	"UnmarshalText":   "([]byte)(error)",
	"MarshalBinary":   "()([]byte, error)",
	"UnmarshalBinary": "([]byte)(error)",
}

// sigKey renders a signature's parameter and result types without names,
// e.g. "(fmt.State, rune)()".
func sigKey(sig *types.Signature) string {
	key := ""
	for _, t := range []*types.Tuple{sig.Params(), sig.Results()} {
		var names []string
		for i := 0; i < t.Len(); i++ {
			names = append(names, types.TypeString(t.At(i).Type(), nil))
		}
		key += "(" + strings.Join(names, ", ") + ")"
	}
	return key
}

// isInternal reports whether an import path has an internal element.
func isInternal(path string) bool { return strings.Contains("/"+path+"/", "/internal/") }

// reach is the dead-code rule's state over one module.
type reach struct {
	mod     *module
	reached map[*types.Func]bool
	exposed map[types.Type]bool // types a package outside internal/ hands out
}

// deadCode reports the unreached functions of pkgs' internal packages, with
// reach taken over the whole module pkgs were loaded from.
func deadCode(pkgs []*Package) []Diagnostic {
	if len(pkgs) == 0 || pkgs[0].mod == nil {
		return nil
	}
	r := &reach{
		mod:     pkgs[0].mod,
		reached: make(map[*types.Func]bool),
		exposed: make(map[types.Type]bool),
	}
	imported := make(map[string]bool)
	for _, pkg := range r.mod.pkgs {
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = true
		}
		r.uses(pkg)
		for _, file := range pkg.Files {
			r.conversions(pkg.Info, file, nil)
		}
		if !isInternal(pkg.Path) {
			r.reexports(pkg)
		}
	}
	ix := newImplIndex(r.mod.pkgs)
	for fn := range r.reached { // an implementation is concrete, so adding one while ranging is safe
		if iface := recvInterface(fn); iface != nil {
			for _, impl := range ix.implsOf(iface, fn) {
				r.reached[impl] = true
			}
		}
	}

	var out []Diagnostic
	for _, pkg := range pkgs {
		if !isInternal(pkg.Path) || !imported[pkg.Path] {
			continue
		}
		for _, id := range declaredFuncs(pkg) {
			fn := pkg.Info.Defs[id].(*types.Func)
			if r.live(fn) {
				continue
			}
			p := pkg.Fset.Position(id.Pos())
			out = append(out, Diagnostic{
				File: p.Filename, Line: p.Line, Col: p.Column, Rule: RuleDeadCode,
				Msg: fmt.Sprintf("%s is reached from no non-test file of the module; delete it, or move it into the tests that use it", fnName(fn)),
			})
		}
	}
	return out
}

// declaredFuncs returns the names of a package's declared functions,
// methods and interface methods, init and main apart.
func declaredFuncs(pkg *Package) []*ast.Ident {
	var out []*ast.Ident
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") || d.Name.Name == "_" {
					continue
				}
				out = append(out, d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if it, ok := ts.Type.(*ast.InterfaceType); ok {
							for _, f := range it.Methods.List {
								out = append(out, f.Names...) // an embedded interface has no names
							}
						}
					}
				}
			}
		}
	}
	return out
}

// live reports whether fn is reached.
func (r *reach) live(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	want, ok := throughAny[fn.Name()]
	return r.reached[fn] || r.mod.excluded[fn.Name()] || ok && sig.Recv() != nil && sigKey(sig) == want
}

// uses marks every function pkg's non-test files use outside the function's
// own declaration.
func (r *reach) uses(pkg *Package) {
	for id, obj := range pkg.Info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			if fn = fn.Origin(); fn.Scope() == nil || !fn.Scope().Contains(id.Pos()) {
				r.reached[fn] = true
			}
		}
	}
}

// inModule reports whether pkg belongs to the module.
func (r *reach) inModule(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == r.mod.path || strings.HasPrefix(pkg.Path(), r.mod.path+"/"))
}

// convert marks, when src is assigned, passed or returned as dst, the
// methods of src's concrete type that a standard-library package declaring
// one of dst's methods can call: every interface of that package the type
// implements, since the library upgrades a value to a wider interface of
// its own (math/rand's Source to Source64, io.Copy's Reader to WriterTo).
func (r *reach) convert(info *types.Info, dst types.Type, src ast.Expr) {
	if dst == nil {
		return
	}
	iface, ok := dst.Underlying().(*types.Interface)
	st := info.TypeOf(src)
	if !ok || st == nil {
		return
	}
	t := st
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	if named, _ := t.(*types.Named); named == nil || !r.inModule(named.Obj().Pkg()) || types.IsInterface(named) {
		return // only the module's own concrete methods are in question
	}
	seen := make(map[*types.Package]bool)
	for i := 0; i < iface.NumMethods(); i++ {
		p := iface.Method(i).Pkg()
		if p == nil || seen[p] || r.inModule(p) {
			continue // error's Error is throughAny's; the module's own interfaces dispatch through Uses
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			j, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface)
			if !ok || !types.Implements(st, j) {
				continue
			}
			mset := types.NewMethodSet(st)
			for k := 0; k < j.NumMethods(); k++ {
				if sel := mset.Lookup(j.Method(k).Pkg(), j.Method(k).Name()); sel != nil {
					r.reached[sel.Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}
}

// conversions walks n for the places a concrete value becomes an interface
// value: call arguments, explicit conversions, assignments, typed var
// declarations, returns (results are those of the function n is the body
// of) and composite-literal elements.
func (r *reach) conversions(info *types.Info, n ast.Node, results *types.Tuple) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				r.conversions(info, n.Body, info.Defs[n.Name].Type().(*types.Signature).Results())
			}
			return false
		case *ast.FuncLit:
			r.conversions(info, n.Body, info.TypeOf(n).(*types.Signature).Results())
			return false
		case *ast.CallExpr:
			tv := info.Types[n.Fun]
			if tv.IsType() && len(n.Args) == 1 {
				r.convert(info, tv.Type, n.Args[0])
				break
			}
			sig, _ := tv.Type.(*types.Signature)
			for i := 0; sig != nil && i < len(n.Args); i++ {
				params, last := sig.Params(), sig.Params().Len()-1
				if s, ok := params.At(last).Type().(*types.Slice); ok && sig.Variadic() && i >= last && !n.Ellipsis.IsValid() {
					r.convert(info, s.Elem(), n.Args[i])
				} else if i <= last {
					r.convert(info, params.At(i).Type(), n.Args[i])
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					r.convert(info, info.TypeOf(lhs), n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					r.convert(info, info.TypeOf(n.Type), v)
				}
			}
		case *ast.ReturnStmt:
			if results != nil && results.Len() == len(n.Results) {
				for i, v := range n.Results {
					r.convert(info, results.At(i).Type(), v)
				}
			}
		case *ast.CompositeLit:
			u := info.TypeOf(n).Underlying()
			for i, elt := range n.Elts {
				var dst types.Type
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
					if id, ok := kv.Key.(*ast.Ident); ok {
						if f, ok := info.Uses[id].(*types.Var); ok && f.IsField() {
							dst = f.Type()
						}
					}
				} else if st, ok := u.(*types.Struct); ok && i < st.NumFields() {
					dst = st.Field(i).Type()
				}
				if e, ok := u.(interface{ Elem() types.Type }); ok { // slice, array, map value
					dst = e.Elem()
				}
				r.convert(info, dst, elt)
			}
		}
		return true
	})
}

// reexports exposes the type of every exported object of a package outside
// internal/.
func (r *reach) reexports(pkg *Package) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			r.expose(obj.Type())
		}
	}
}

// expose marks what a caller outside the module can reach through a value
// of type t: the exported methods of the module's named types in it, and
// through their signatures further types.
func (r *reach) expose(t types.Type) {
	t = types.Unalias(t)
	if r.exposed[t] {
		return
	}
	r.exposed[t] = true
	switch t := t.(type) {
	case *types.Named:
		if !r.inModule(t.Obj().Pkg()) {
			return
		}
		mset := types.NewMethodSet(types.NewPointer(t))
		for i := 0; i < mset.Len(); i++ {
			if fn, ok := mset.At(i).Obj().(*types.Func); ok && fn.Exported() {
				r.reached[fn.Origin()] = true
				r.expose(fn.Type())
			}
		}
		r.expose(t.Underlying())
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			if fn := t.Method(i); fn.Exported() {
				r.reached[fn.Origin()] = true
				r.expose(fn.Type())
			}
		}
	case *types.Signature:
		r.expose(t.Params())
		r.expose(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			r.expose(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() {
				r.expose(f.Type())
			}
		}
	case *types.Map:
		r.expose(t.Key())
		r.expose(t.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, chan
		r.expose(t.Elem())
	}
}
