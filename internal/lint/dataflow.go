package lint

// dataflow.go runs the taint-style propagation over the call graph and
// emits the interprocedural rules:
//
//   transitive-wallclock      a NumericPackages function calls out of the
//                             numeric core into a function that reaches
//                             time.Now/Since/Until through any chain. Only
//                             the frontier edge is reported — numeric →
//                             numeric chains are reported where they leave
//                             the core, and direct time.* calls stay
//                             no-wallclock's domain — so one root cause
//                             yields one diagnostic, not a cascade.
//   lock-held-across-blocking a sync.Mutex/RWMutex is provably held at a
//                             blocking operation (channel op, file I/O,
//                             fsync, time.Sleep, WaitGroup.Wait, abstract
//                             I/O method) or at a call whose callee blocks
//                             transitively — unless every lock held there
//                             carries a //gptlint:serializes-io marker.
//   lock-order                two mutex classes are acquired in opposite
//                             orders somewhere in the module.
//   goroutine-leak            a go statement whose body shows no join
//                             evidence (WaitGroup.Done, close, or a
//                             channel send).
//   hotpath-alloc             a //gptlint:hotpath function allocates
//                             directly or calls something that does.
//
// Summaries use set-once BFS from the seed sites up the reverse edges,
// which both terminates on cycles and yields shortest witness chains.
// Wall-clock taint flows through every edge including spawned ones (a
// goroutine's clock read is as nondeterministic as the parent's); blocking
// and allocation flow only through non-spawned edges.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// propagate computes every node's transitive summaries.
func (g *graph) propagate() {
	revAll := make(map[*fnNode][]*fnNode)
	revSync := make(map[*fnNode][]*fnNode)
	for _, n := range g.order {
		for _, e := range n.calls {
			m := g.nodes[e.to]
			if m == nil {
				continue
			}
			revAll[m] = append(revAll[m], n)
			if !e.spawned {
				revSync[m] = append(revSync[m], n)
			}
		}
	}

	bfs := func(rev map[*fnNode][]*fnNode, seeds func(*fnNode) []site,
		get func(*fnNode) *effect, set func(*fnNode, *effect)) {
		var queue []*fnNode
		for _, n := range g.order {
			if s := seeds(n); len(s) > 0 && get(n) == nil {
				set(n, &effect{pos: s[0].pos, desc: s[0].desc})
				queue = append(queue, n)
			}
		}
		for len(queue) > 0 {
			m := queue[0]
			queue = queue[1:]
			me := get(m)
			for _, caller := range rev[m] {
				if get(caller) == nil {
					set(caller, &effect{
						pos:  me.pos,
						desc: me.desc,
						path: append([]string{fnName(m.fn)}, me.path...),
					})
					queue = append(queue, caller)
				}
			}
		}
	}

	bfs(revAll,
		func(n *fnNode) []site { return n.wall },
		func(n *fnNode) *effect { return n.sumWall },
		func(n *fnNode, e *effect) { n.sumWall = e })
	bfs(revSync,
		func(n *fnNode) []site { return n.blocking },
		func(n *fnNode) *effect { return n.sumBlock },
		func(n *fnNode, e *effect) { n.sumBlock = e })
	bfs(revSync,
		func(n *fnNode) []site { return n.allocs },
		func(n *fnNode) *effect { return n.sumAlloc },
		func(n *fnNode, e *effect) { n.sumAlloc = e })

	// Lock-acquisition sets: union over callees to a fixpoint.
	for _, n := range g.order {
		n.sumLocks = make(map[string]*effect)
		for k, s := range n.locks {
			n.sumLocks[k] = &effect{pos: s.pos, desc: s.desc}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.order {
			for _, e := range n.calls {
				if e.spawned {
					continue
				}
				m := g.nodes[e.to]
				if m == nil {
					continue
				}
				for k, eff := range m.sumLocks {
					if _, ok := n.sumLocks[k]; ok {
						continue
					}
					n.sumLocks[k] = &effect{
						pos:  eff.pos,
						desc: eff.desc,
						path: append([]string{fnName(m.fn)}, eff.path...),
					}
					changed = true
				}
			}
		}
	}
}

// reporter appends interprocedural diagnostics.
type reporter func(pos token.Position, rule, format string, args ...any)

// transitiveWallclock reports numeric-core calls whose callee leaves the
// numeric package set and reaches the wall clock.
func (g *graph) transitiveWallclock(report reporter) {
	for _, n := range g.order {
		if !g.cfg.isNumeric(n.pkg.Path) {
			continue
		}
		seen := make(map[token.Position]bool)
		for _, e := range n.calls {
			m := g.nodes[e.to]
			if m == nil || m.sumWall == nil || g.cfg.isNumeric(m.pkg.Path) || seen[e.pos] {
				continue
			}
			seen[e.pos] = true
			report(e.pos, RuleTransitiveWallclock,
				"call to %s reaches the wall clock (%s); inject a clock from the caller instead",
				fnName(m.fn), m.sumWall.trace())
		}
	}
}

// hotpathAlloc reports allocations in //gptlint:hotpath functions: direct
// sites, plus calls to functions that allocate transitively.
func (g *graph) hotpathAlloc(report reporter) {
	for _, n := range g.order {
		if !n.hot {
			continue
		}
		for _, s := range n.allocs {
			report(s.pos, RuleHotpathAlloc,
				"%s allocates in hotpath function %s; reuse workspace buffers or justify with an ignore",
				s.desc, fnName(n.fn))
		}
		seen := make(map[token.Position]bool)
		for _, e := range n.calls {
			m := g.nodes[e.to]
			if e.spawned || m == nil || m.sumAlloc == nil || seen[e.pos] {
				continue
			}
			seen[e.pos] = true
			report(e.pos, RuleHotpathAlloc,
				"call to %s allocates (%s) in hotpath function %s",
				fnName(m.fn), m.sumAlloc.trace(), fnName(n.fn))
		}
	}
}

// goroutineLeaks reports go statements with no join evidence.
func (g *graph) goroutineLeaks(report reporter) {
	for _, n := range g.order {
		for _, gs := range n.goStmts {
			if g.joinable(n.pkg, gs.stmt) {
				continue
			}
			report(gs.pos, RuleGoroutineLeak,
				"goroutine has no join path (no WaitGroup.Done, close, or channel send in its body); join it or justify with an ignore")
		}
	}
}

// joinable looks for join evidence in the spawned body: a WaitGroup.Done,
// a close, or a channel send — the signals a parent can wait on.
func (g *graph) joinable(pkg *Package, gs *ast.GoStmt) bool {
	if lit, ok := unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return bodyHasJoin(pkg, lit.Body)
	}
	if fn := callee(pkg.Info, gs.Call); fn != nil {
		if m := g.nodes[fn.Origin()]; m != nil {
			return bodyHasJoin(m.pkg, m.decl.Body)
		}
	}
	return false
}

func bodyHasJoin(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if id, ok := unparen(x.Fun).(*ast.Ident); ok {
				if b, isB := pkg.Info.Uses[id].(*types.Builtin); isB && b.Name() == "close" {
					found = true
				}
			}
			if fn := callee(pkg.Info, x); fn != nil && fn.Name() == "Done" {
				if isNamedIn(recvNamed(fn), "sync", "WaitGroup") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// --- lock discipline: a sequential lockset walk per function ---

// heldLock is one mutex the walker believes is held, with where it was
// acquired.
type heldLock struct {
	key string
	pos token.Position
	op  string
}

// lockWalker threads a lockset through one function body in statement
// order. defer is the known approximation: a `defer mu.Unlock()` does NOT
// release for the walk — the mutex really is held until return, which is
// exactly what lock-held-across-blocking must see — and deferred call
// bodies are not walked (their lockset at run time is the return-time one,
// which the walk does not model).
type lockWalker struct {
	g        *graph
	n        *fnNode
	report   reporter
	emit     bool // emit lock-held-across-blocking diagnostics
	consumed map[*ast.FuncLit]bool
	seen     map[token.Position]bool
}

// lockDiscipline walks every function, emitting lock-held-across-blocking
// diagnostics (when emitHeld) and accumulating lock-order observations
// into g.orders.
func (g *graph) lockDiscipline(report reporter, emitHeld bool) {
	for _, n := range g.order {
		w := &lockWalker{
			g: g, n: n, report: report, emit: emitHeld,
			consumed: make(map[*ast.FuncLit]bool),
			seen:     make(map[token.Position]bool),
		}
		w.stmts(n.decl.Body.List, nil)
	}
}

// lockOrderDiags pairs up the collected order observations and reports
// every inconsistent pair (both A-then-B and B-then-A observed).
func (g *graph) lockOrderDiags(report reporter) {
	type pair struct{ a, b string }
	byPair := make(map[pair][]orderEdge)
	for _, e := range g.orders {
		byPair[pair{e.first, e.second}] = append(byPair[pair{e.first, e.second}], e)
	}
	keys := make([]pair, 0, len(byPair))
	for p := range byPair {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	type dedupe struct {
		pos  token.Position
		pair pair
	}
	reported := make(map[dedupe]bool)
	for _, p := range keys {
		rev, ok := byPair[pair{p.b, p.a}]
		if !ok || p.a == p.b {
			continue
		}
		for _, e := range byPair[p] {
			d := dedupe{pos: e.pos, pair: p}
			if reported[d] {
				continue
			}
			reported[d] = true
			via := ""
			if e.trace != "" {
				via = " via " + e.trace
			}
			report(e.pos, RuleLockOrder,
				"%s acquired%s while holding %s, but the opposite order occurs at %s; pick one order",
				p.b, via, p.a, relPos(rev[0].pos))
		}
	}
}

func clone(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

func (w *lockWalker) stmts(list []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

// stmt advances the lockset across one statement. Branch bodies are
// analyzed with a copy of the lockset and their lock effects dropped
// afterwards: a branch that unlocks must return (the usual error-path
// shape), and conditional acquisition is a documented under-approximation.
func (w *lockWalker) stmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		held = w.scan(s.Cond, held)
		w.stmt(s.Body, clone(held))
		if s.Else != nil {
			w.stmt(s.Else, clone(held))
		}
		return held
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			held = w.scan(s.Cond, held)
		}
		inner := clone(held)
		inner = w.stmt(s.Body, inner)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
		return held
	case *ast.RangeStmt:
		held = w.scan(s.X, held)
		if isChanType(w.n.pkg.Info.TypeOf(s.X)) {
			w.blockEvent(w.pos(s.Pos()), "range over channel", held)
		}
		w.stmt(s.Body, clone(held))
		return held
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			held = w.scan(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				h := clone(held)
				for _, e := range cc.List {
					h = w.scan(e, h)
				}
				w.stmts(cc.Body, h)
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.stmt(s.Assign, clone(held))
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, clone(held))
			}
		}
		return held
	case *ast.SelectStmt:
		if !hasDefault(s) {
			w.blockEvent(w.pos(s.Pos()), "select", held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				h := clone(held)
				if cc.Comm != nil {
					h = w.stmt(cc.Comm, h)
				}
				w.stmts(cc.Body, h)
			}
		}
		return held
	case *ast.SendStmt:
		held = w.scan(s.Chan, held)
		held = w.scan(s.Value, held)
		w.blockEvent(w.pos(s.Arrow), "channel send", held)
		return held
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			held = w.scan(a, held)
		}
		return held
	case *ast.DeferStmt:
		// Arguments are evaluated now; the call itself runs at return.
		for _, a := range s.Call.Args {
			held = w.scan(a, held)
		}
		return held
	case *ast.ExprStmt:
		return w.scan(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			held = w.scan(e, held)
		}
		for _, e := range s.Lhs {
			held = w.scan(e, held)
		}
		return held
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			held = w.scan(e, held)
		}
		return held
	case *ast.IncDecStmt:
		return w.scan(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						held = w.scan(v, held)
					}
				}
			}
		}
		return held
	}
	return held
}

func (w *lockWalker) pos(p token.Pos) token.Position { return w.n.pkg.Fset.Position(p) }

// scan processes an expression tree in pre-order, threading the lockset.
func (w *lockWalker) scan(e ast.Expr, held []heldLock) []heldLock {
	if e == nil {
		return held
	}
	hp := &held
	ast.Inspect(e, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if w.consumed[x] {
				// Immediately invoked: body runs here, under the current set.
				*hp = w.stmts(x.Body.List, *hp)
			} else {
				// Escaping closure: analyzed with an empty lockset of its own.
				w.stmts(x.Body.List, nil)
			}
			return false
		case *ast.CallExpr:
			if lit, ok := unparen(x.Fun).(*ast.FuncLit); ok {
				w.consumed[lit] = true
			}
			w.callEvent(x, hp)
			return true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.blockEvent(w.pos(x.Pos()), "channel receive", *hp)
			}
		}
		return true
	})
	return *hp
}

// callEvent handles one call during the lockset walk: mutex ops mutate the
// set; blocking calls and calls to transitively blocking or lock-acquiring
// callees are checked against it.
func (w *lockWalker) callEvent(call *ast.CallExpr, hp *[]heldLock) {
	pos := w.pos(call.Pos())
	if fn := callee(w.n.pkg.Info, call); fn != nil {
		if op, ok := mutexMethod(fn.Origin()); ok {
			key := lockKeyOfCall(w.n.pkg, fnName(w.n.fn), call)
			switch op {
			case "Lock", "RLock":
				for _, h := range *hp {
					if h.key != key {
						w.g.orders = append(w.g.orders, orderEdge{
							first: h.key, second: key, firstPos: h.pos, pos: pos,
						})
					}
				}
				*hp = append(*hp, heldLock{key: key, pos: pos, op: op})
			case "Unlock", "RUnlock":
				for i := len(*hp) - 1; i >= 0; i-- {
					if (*hp)[i].key == key {
						*hp = append((*hp)[:i], (*hp)[i+1:]...)
						break
					}
				}
			}
			return
		}
	}
	if desc, ok := directBlockingCall(w.n.pkg, call); ok {
		w.blockEvent(pos, desc, *hp)
		return
	}
	if len(*hp) == 0 {
		return
	}
	callees := w.g.calleesOf(w.n.pkg, call)
	for _, to := range callees {
		m := w.g.nodes[to]
		if m == nil {
			continue
		}
		if m.sumBlock != nil && !w.seen[pos] {
			w.seen[pos] = true
			if w.emit && !w.g.ix.serialized(*hp) {
				w.report(pos, RuleLockBlocking,
					"call to %s blocks (%s) while holding %s",
					fnName(m.fn), m.sumBlock.trace(), heldList(*hp))
			}
		}
		for k, eff := range m.sumLocks {
			for _, h := range *hp {
				if h.key == k {
					continue
				}
				w.g.orders = append(w.g.orders, orderEdge{
					first: h.key, second: k, firstPos: h.pos, pos: pos,
					trace: fnName(m.fn) + "'s " + eff.trace(),
				})
			}
		}
	}
}

func (w *lockWalker) blockEvent(pos token.Position, desc string, held []heldLock) {
	if len(held) == 0 || !w.emit || w.seen[pos] || w.g.ix.serialized(held) {
		return
	}
	w.seen[pos] = true
	w.report(pos, RuleLockBlocking, "%s while holding %s", desc, heldList(held))
}

func heldList(held []heldLock) string {
	parts := make([]string, len(held))
	for i, h := range held {
		parts[i] = fmt.Sprintf("%s (%s at %s)", h.key, h.op, relPos(h.pos))
	}
	return strings.Join(parts, ", ")
}

// GraphDump renders the call graph for cmd/gptlint -graph: one line per
// function with its summary flags, then one indented line per edge.
func GraphDump(pkgs []*Package, cfg Config) []string {
	g := buildGraph(pkgs, &cfg, newIgnoreIndex(pkgs))
	g.propagate()
	var out []string
	for _, n := range g.order {
		var flags []string
		if n.hot {
			flags = append(flags, "hotpath")
		}
		if n.sumWall != nil {
			flags = append(flags, "wallclock")
		}
		if n.sumBlock != nil {
			flags = append(flags, "blocks")
		}
		if n.sumAlloc != nil {
			flags = append(flags, "allocates")
		}
		line := fnName(n.fn)
		if len(flags) > 0 {
			line += " [" + strings.Join(flags, " ") + "]"
		}
		out = append(out, line)
		for _, e := range n.calls {
			mark := ""
			if e.spawned {
				mark = " [spawned]"
			}
			out = append(out, fmt.Sprintf("  -> %s%s (%s)", fnName(e.to), mark, relPos(e.pos)))
		}
	}
	return out
}
