package lint

// callgraph.go builds gptlint's module-wide call graph: one node per
// declared function with a body in the analyzed package set, with edges for
// every statically resolvable call. Calls through interface methods are
// expanded to every module-defined type implementing the interface (the
// implements-set approximation); calls through function values, method
// values, and reflection are invisible — DESIGN.md §7.5 lists the resulting
// false negatives. Alongside the edges, one walk over each body collects
// the direct facts the dataflow pass propagates: wall-clock reads,
// allocation sites, blocking operations, mutex acquisitions, and go
// statements.
//
// Attribution: a func literal's body belongs to the enclosing declared
// function, so closures passed to mpx pools charge their effects to the
// function that built them. The one exception is a literal spawned by a go
// statement: the goroutine's wall-clock reads and allocations still count
// (they taint determinism and hot paths regardless of which goroutine runs
// them), but its blocking operations and lock acquisitions do not block the
// parent, so spawned bodies are excluded from the blocking and lock facts.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// site is one direct fact location inside a function body.
type site struct {
	pos  token.Position
	desc string
}

// effect is a transitive dataflow fact with its witness chain: path names
// the functions between the summarized function (exclusive) and the
// ultimate site, so diagnostics can show how the effect is reached.
type effect struct {
	pos  token.Position
	desc string
	path []string
}

// trace renders the witness chain, e.g.
// "(*WAL).Append → os.File.Sync at wal.go:183".
func (e *effect) trace() string {
	loc := fmt.Sprintf("%s at %s", e.desc, relPos(e.pos))
	if len(e.path) == 0 {
		return loc
	}
	return strings.Join(e.path, " → ") + " → " + loc
}

// relPos shortens a position to basename:line for witness chains; the
// diagnostic itself carries the full path.
func relPos(p token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// callEdge is one resolved static call.
type callEdge struct {
	to      *types.Func
	pos     token.Position
	spawned bool // call happens on a goroutine the caller spawned
}

// goSite is one go statement, kept for the goroutine-leak rule.
type goSite struct {
	stmt *ast.GoStmt
	pos  token.Position
}

// fnNode is one declared function: its direct facts and, after
// propagation, its transitive summaries.
type fnNode struct {
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl
	hot  bool // carries a //gptlint:hotpath marker

	calls    []callEdge
	wall     []site          // direct wall-clock reads (unsevered)
	allocs   []site          // direct allocation sites (unsevered)
	blocking []site          // direct blocking operations (non-spawned)
	locks    map[string]site // lock key -> first direct acquisition
	goStmts  []goSite

	sumWall  *effect            // reaches a wall-clock read
	sumBlock *effect            // may block
	sumAlloc *effect            // allocates
	sumLocks map[string]*effect // lock keys transitively acquired
}

// graph is the module-wide call graph over the analyzed packages.
type graph struct {
	cfg   *Config
	ix    *ignoreIndex
	nodes map[*types.Func]*fnNode
	order []*fnNode // deterministic: packages sorted, files sorted, decl order
	impls *implIndex

	orders []orderEdge // lock-order observations, filled by lockDiscipline
}

// orderEdge records "second acquired while first was held" at pos; trace is
// empty for a direct acquisition and a witness chain for a transitive one.
type orderEdge struct {
	first, second string
	firstPos      token.Position
	pos           token.Position
	trace         string
}

const hotpathMarker = "//gptlint:hotpath"

// isHotpath reports whether the declaration's doc comment carries the
// //gptlint:hotpath marker (alone or with trailing commentary).
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathMarker || strings.HasPrefix(c.Text, hotpathMarker+" ") {
			return true
		}
	}
	return false
}

// buildGraph registers every declared function and collects its direct
// facts and call edges.
func buildGraph(pkgs []*Package, cfg *Config, ix *ignoreIndex) *graph {
	g := &graph{
		cfg:   cfg,
		ix:    ix,
		nodes: make(map[*types.Func]*fnNode),
		impls: newImplIndex(pkgs),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &fnNode{fn: obj, pkg: pkg, decl: fd, hot: isHotpath(fd), locks: make(map[string]site)}
				g.nodes[obj] = n
				g.order = append(g.order, n)
			}
		}
	}
	for _, n := range g.order {
		c := &collector{g: g, n: n}
		c.walk(n.decl.Body, false)
	}
	return g
}

// implIndex resolves an interface method to the concrete methods of a
// package set that implement it (the implements-set approximation).
type implIndex struct {
	namedTypes []*types.Named // the packages' package-level named types
	cache      map[*types.Interface]map[string][]*types.Func
}

func newImplIndex(pkgs []*Package) *implIndex {
	x := &implIndex{cache: make(map[*types.Interface]map[string][]*types.Func)}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					x.namedTypes = append(x.namedTypes, named)
				}
			}
		}
	}
	return x
}

// implsOf returns the concrete methods implementing the interface method m,
// cached per interface.
func (x *implIndex) implsOf(iface *types.Interface, m *types.Func) []*types.Func {
	byName, ok := x.cache[iface]
	if !ok {
		byName = make(map[string][]*types.Func)
		for _, named := range x.namedTypes {
			if types.IsInterface(named.Underlying()) || named.TypeParams().Len() > 0 {
				continue
			}
			var impl types.Type
			if types.Implements(named, iface) {
				impl = named
			} else if p := types.NewPointer(named); types.Implements(p, iface) {
				impl = p
			} else {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				name := iface.Method(i).Name()
				obj, _, _ := types.LookupFieldOrMethod(impl, true, named.Obj().Pkg(), name)
				if f, isFn := obj.(*types.Func); isFn {
					byName[name] = append(byName[name], f.Origin())
				}
			}
		}
		x.cache[iface] = byName
	}
	return byName[m.Name()]
}

// calleesOf resolves a call expression to the module functions it may
// invoke: the concrete callee, or the implements-set for an interface
// method. Builtins, stdlib concretes, and dynamic calls resolve to nil.
func (g *graph) calleesOf(pkg *Package, call *ast.CallExpr) []*types.Func {
	fn := callee(pkg.Info, call)
	if fn == nil {
		return nil
	}
	fn = fn.Origin()
	if iface := recvInterface(fn); iface != nil {
		var out []*types.Func
		for _, impl := range g.impls.implsOf(iface, fn) {
			if g.nodes[impl] != nil {
				out = append(out, impl)
			}
		}
		return out
	}
	if g.nodes[fn] != nil {
		return []*types.Func{fn}
	}
	return nil
}

// osIOFuncs are the package-level os functions that touch the filesystem.
var osIOFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "Remove": true, "RemoveAll": true,
	"Rename": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"ReadDir": true, "Stat": true, "Lstat": true, "Truncate": true,
	"Chmod": true, "Chtimes": true, "Link": true, "Symlink": true,
}

// ioMethodNames is the heuristic for interface methods that stand for I/O:
// a call to an abstract Read/Write/Sync/... is assumed to block. Named
// after the io/os method vocabulary the module's File-style interfaces use.
var ioMethodNames = map[string]bool{
	"Read": true, "Write": true, "ReadAt": true, "WriteAt": true,
	"Seek": true, "Sync": true, "Close": true, "Flush": true,
}

// recvNamed returns the named receiver type of a concrete method, nil for
// package-level functions and interface methods (including methods of
// named interface types, which recvInterface classifies instead).
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named != nil && types.IsInterface(named.Underlying()) {
		return nil
	}
	return named
}

// recvInterface returns the interface type a method is declared on, nil
// for concrete methods and package-level functions.
func recvInterface(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// isNamedIn reports whether named is type pkgPath.typeName.
func isNamedIn(named *types.Named, pkgPath, typeName string) bool {
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == typeName
}

// mutexMethod classifies fn as a sync.Mutex/RWMutex lock or unlock method;
// op is "Lock"/"RLock"/"Unlock"/"RUnlock", ok false otherwise. sync.Cond
// is deliberately excluded: Cond.Wait atomically releases its mutex, so
// holding a lock "across" it is the intended pattern, not a bug.
func mutexMethod(fn *types.Func) (op string, ok bool) {
	named := recvNamed(fn)
	if !isNamedIn(named, "sync", "Mutex") && !isNamedIn(named, "sync", "RWMutex") {
		return "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return fn.Name(), true
	}
	return "", false
}

// fnName renders a compact qualified function name for diagnostics, e.g.
// "histdb.(*WAL).Append" or "mpx.ParallelFor".
func fnName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + "." + fn.Name()
	}
	t := sig.Recv().Type()
	ptr := ""
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
		ptr = "*"
	}
	tname := "?"
	if named, isNamed := t.(*types.Named); isNamed {
		tname = named.Obj().Name()
	} else if iface, isIface := t.Underlying().(*types.Interface); isIface {
		_ = iface
		tname = t.String()
	}
	return fmt.Sprintf("%s.(%s%s).%s", pkg, ptr, tname, fn.Name())
}

// lockExprKey derives the class-level identity of a mutex expression: the
// receiver type plus field for "s.mu", the package for a package-level
// var, the enclosing function for a local. Two instances of the same
// field share a key — the standard class-level approximation for lock
// discipline.
func lockExprKey(pkg *Package, fnLabel string, e ast.Expr) string {
	e = unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		t := pkg.Info.TypeOf(e.X)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + e.Sel.Name
		}
		return "?." + e.Sel.Name
	case *ast.Ident:
		obj := pkg.Info.Uses[e]
		if v, ok := obj.(*types.Var); ok {
			if v.Parent() == pkg.Types.Scope() {
				return pkg.Types.Name() + "." + v.Name()
			}
			// t.Lock() through an embedded sync.Mutex: key by the outer type.
			t := v.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil &&
				!isNamedIn(named, "sync", "Mutex") && !isNamedIn(named, "sync", "RWMutex") {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + ".(embedded)"
			}
			return fnLabel + "." + v.Name()
		}
	}
	return fnLabel + ".(mutex)"
}

// lockKeyOfCall extracts the lock key from a mu.Lock()-shaped call.
func lockKeyOfCall(pkg *Package, fnLabel string, call *ast.CallExpr) string {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		return lockExprKey(pkg, fnLabel, sel.X)
	}
	return fnLabel + ".(mutex)"
}

// directBlockingCall classifies a call expression that blocks by itself:
// time.Sleep, filesystem operations, *os.File methods, WaitGroup.Wait,
// and abstract I/O-named interface methods.
func directBlockingCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	fn := callee(pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	fn = fn.Origin()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() == nil {
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Sleep" {
				return "time.Sleep", true
			}
		case "os":
			if osIOFuncs[fn.Name()] {
				return "os." + fn.Name(), true
			}
		}
		return "", false
	}
	if named := recvNamed(fn); named != nil {
		if isNamedIn(named, "os", "File") {
			return "os.File." + fn.Name(), true
		}
		if isNamedIn(named, "sync", "WaitGroup") && fn.Name() == "Wait" {
			return "sync.WaitGroup.Wait", true
		}
		return "", false
	}
	if recvInterface(fn) != nil && ioMethodNames[fn.Name()] {
		return fn.Name() + " (interface method, assumed I/O)", true
	}
	return "", false
}

// hasDefault reports whether a select statement has a default clause (and
// is therefore non-blocking).
func hasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// collector performs the fact-gathering walk over one function body.
type collector struct {
	g *graph
	n *fnNode
}

func (c *collector) pos(p token.Pos) token.Position { return c.n.pkg.Fset.Position(p) }

func (c *collector) block(p token.Pos, desc string, spawned bool) {
	if spawned {
		return
	}
	c.n.blocking = append(c.n.blocking, site{pos: c.pos(p), desc: desc})
}

// walk traverses node collecting facts; spawned marks code that runs on a
// goroutine the function spawned (see the attribution note at the top).
func (c *collector) walk(node ast.Node, spawned bool) {
	if node == nil {
		return
	}
	ast.Inspect(node, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			c.goStmt(x, spawned)
			return false
		case *ast.FuncLit:
			// A closure value that escapes (assigned, passed, returned).
			// Capturing closures allocate; the body still belongs to us.
			if n := captureCount(c.n.pkg, x); n > 0 {
				c.alloc(x.Pos(), fmt.Sprintf("closure capturing %d variable(s)", n))
			}
			c.walk(x.Body, spawned)
			return false
		case *ast.CallExpr:
			c.callExpr(x, spawned)
			if lit, ok := unparen(x.Fun).(*ast.FuncLit); ok {
				// Immediately invoked literal: no escaping closure value;
				// walk body and args in the current mode.
				c.walk(lit.Body, spawned)
				for _, a := range x.Args {
					c.walk(a, spawned)
				}
				return false
			}
			return true
		case *ast.SendStmt:
			c.block(x.Arrow, "channel send", spawned)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				c.block(x.Pos(), "channel receive", spawned)
			}
		case *ast.SelectStmt:
			if !hasDefault(x) {
				c.block(x.Pos(), "select", spawned)
			}
		case *ast.RangeStmt:
			if isChanType(c.n.pkg.Info.TypeOf(x.X)) {
				c.block(x.Pos(), "range over channel", spawned)
			}
		}
		return true
	})
}

func (c *collector) alloc(p token.Pos, desc string) {
	pos := c.pos(p)
	if c.g.ix.severs(pos, RuleHotpathAlloc) {
		return
	}
	c.n.allocs = append(c.n.allocs, site{pos: pos, desc: desc})
}

func (c *collector) goStmt(x *ast.GoStmt, spawned bool) {
	c.n.goStmts = append(c.n.goStmts, goSite{stmt: x, pos: c.pos(x.Pos())})
	if lit, ok := unparen(x.Call.Fun).(*ast.FuncLit); ok {
		c.walk(lit.Body, true)
	} else {
		for _, to := range c.g.calleesOf(c.n.pkg, x.Call) {
			c.n.calls = append(c.n.calls, callEdge{to: to, pos: c.pos(x.Pos()), spawned: true})
		}
	}
	for _, a := range x.Call.Args {
		c.walk(a, spawned) // args are evaluated by the spawning goroutine
	}
}

// callExpr records the facts of one call: builtin allocations, wall-clock
// reads, blocking operations, lock acquisitions, and call edges.
func (c *collector) callExpr(x *ast.CallExpr, spawned bool) {
	if id, ok := unparen(x.Fun).(*ast.Ident); ok {
		if b, isB := c.n.pkg.Info.Uses[id].(*types.Builtin); isB {
			switch b.Name() {
			case "make":
				c.alloc(x.Pos(), "make")
			case "new":
				c.alloc(x.Pos(), "new")
			case "append":
				if growingAppend(x) {
					c.alloc(x.Pos(), "append (may grow)")
				}
			}
			return
		}
	}
	fn := callee(c.n.pkg.Info, x)
	if fn == nil {
		return // dynamic call through a function value: invisible (DESIGN.md §7.5)
	}
	fn = fn.Origin()
	if fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallclockFuncs[fn.Name()] {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() == nil {
			pos := c.pos(x.Pos())
			if !c.g.ix.severs(pos, RuleWallclock, RuleTransitiveWallclock) {
				c.n.wall = append(c.n.wall, site{pos: pos, desc: "time." + fn.Name()})
			}
			return
		}
	}
	if op, ok := mutexMethod(fn); ok {
		if !spawned && (op == "Lock" || op == "RLock") {
			key := lockKeyOfCall(c.n.pkg, fnName(c.n.fn), x)
			if _, seen := c.n.locks[key]; !seen {
				c.n.locks[key] = site{pos: c.pos(x.Pos()), desc: op}
			}
		}
		return
	}
	if desc, ok := directBlockingCall(c.n.pkg, x); ok {
		c.block(x.Pos(), desc, spawned)
		// An abstract I/O method also dispatches to module implementations;
		// fall through to record those edges.
		if recvInterface(fn) == nil {
			return
		}
	}
	for _, to := range c.g.calleesOf(c.n.pkg, x) {
		c.n.calls = append(c.n.calls, callEdge{to: to, pos: c.pos(x.Pos()), spawned: spawned})
	}
}

// growingAppend reports whether an append call can grow its backing array.
// append(x[:0], ...) reuses x's capacity and is the one recognized
// non-growing form.
func growingAppend(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	sl, ok := unparen(call.Args[0]).(*ast.SliceExpr)
	if !ok || sl.High == nil {
		return true
	}
	lit, ok := unparen(sl.High).(*ast.BasicLit)
	return !ok || lit.Value != "0"
}

// captureCount counts variables a func literal captures from enclosing
// function scope (package-level objects and its own locals excluded).
func captureCount(pkg *Package, lit *ast.FuncLit) int {
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Parent() == pkg.Types.Scope() || v.Pkg() != pkg.Types {
			return true // package-level or foreign: not a capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			seen[v] = true
		}
		return true
	})
	return len(seen)
}
