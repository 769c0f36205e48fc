package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Rule names, stable identifiers used in diagnostics, //gptlint:ignore
// comments, and golden-file expectations.
const (
	RuleGlobalRand     = "no-global-rand"      // R1
	RuleWallclock      = "no-wallclock"        // R2
	RuleMapRange       = "no-map-range"        // R3
	RuleStrayGoroutine = "no-stray-goroutines" // R4
	RuleFloatEq        = "float-eq"            // R5
	RuleUncheckedError = "unchecked-error"     // R6
	RuleMathExp        = "no-math-exp"         // R12
	RuleDeadCode       = "dead-code"           // R13, deadcode.go

	// Interprocedural rules, computed over the module-wide call graph
	// (callgraph.go / dataflow.go).
	RuleTransitiveWallclock = "transitive-wallclock"      // R7
	RuleLockBlocking        = "lock-held-across-blocking" // R8
	RuleLockOrder           = "lock-order"                // R9
	RuleGoroutineLeak       = "goroutine-leak"            // R10
	RuleHotpathAlloc        = "hotpath-alloc"             // R11

	// Meta rules emitted by the ignore-contract checker itself.
	RuleBadIgnore    = "bad-ignore"
	RuleUnusedIgnore = "unused-ignore"
)

// knownRules is the set of rule names an ignore comment may name.
var knownRules = map[string]bool{
	RuleGlobalRand:          true,
	RuleWallclock:           true,
	RuleMapRange:            true,
	RuleStrayGoroutine:      true,
	RuleFloatEq:             true,
	RuleUncheckedError:      true,
	RuleMathExp:             true,
	RuleDeadCode:            true,
	RuleTransitiveWallclock: true,
	RuleLockBlocking:        true,
	RuleLockOrder:           true,
	RuleGoroutineLeak:       true,
	RuleHotpathAlloc:        true,
}

// KnownRules returns every rule name, sorted — the authoritative list for
// cmd/gptlint -rules validation and usage text.
func KnownRules() []string {
	out := make([]string, 0, len(knownRules))
	for r := range knownRules {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Msg)
}

// Config scopes the rules. R1 (no-global-rand) applies to every analyzed
// package, its constructor half to every package outside RandOwners; R4
// (no-stray-goroutines) to every package not in GoroutineAllowed;
// R2/R3/R5/R6/R12 only to the NumericPackages — the deterministic numeric
// core whose outputs must be bitwise reproducible, on every machine. Of the interprocedural rules,
// transitive-wallclock applies to the NumericPackages (reported at the edge
// where a call chain leaves the numeric core); lock-held-across-blocking,
// lock-order, and goroutine-leak apply everywhere; hotpath-alloc applies to
// functions marked //gptlint:hotpath wherever they are. dead-code is scoped
// by Go's own visibility, not by the Config: it checks every package under
// an internal/ path element.
type Config struct {
	// NumericPackages are the import paths where the determinism rules
	// (no-wallclock, no-map-range, float-eq, unchecked-error, no-math-exp,
	// transitive-wallclock) apply.
	NumericPackages []string
	// GoroutineAllowed are the import paths permitted to contain go
	// statements (the mpx worker-pool substrate).
	GoroutineAllowed []string
	// RandOwners are the import paths permitted to build math/rand
	// generators (internal/rng and the benchmark harness).
	RandOwners []string
	// Rules, when non-empty, restricts the run to the named rules.
	// bad-ignore is always enforced; unused-ignore is only enforced on
	// full runs (an ignore for a disabled rule legitimately suppresses
	// nothing).
	Rules []string
}

func (c *Config) isNumeric(path string) bool { return containsString(c.NumericPackages, path) }
func (c *Config) allowsGo(path string) bool  { return containsString(c.GoroutineAllowed, path) }

func (c *Config) ownsRand(path string) bool { return containsString(c.RandOwners, path) }

// enabled reports whether diagnostics for rule should be emitted.
func (c *Config) enabled(rule string) bool {
	return len(c.Rules) == 0 || containsString(c.Rules, rule)
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// DefaultConfig returns the rule scoping for a module laid out like this
// repo: the numeric core under
// internal/{gp,la,core,opt,acq,sample,sparse,space}, all parallelism in
// internal/mpx, and every generator built by internal/rng (or by the
// benchmark harness, which is not tuner code).
func DefaultConfig(modulePath string) Config {
	numeric := []string{"gp", "la", "core", "opt", "acq", "sample", "sparse", "space"}
	cfg := Config{}
	for _, n := range numeric {
		cfg.NumericPackages = append(cfg.NumericPackages, modulePath+"/internal/"+n)
	}
	cfg.GoroutineAllowed = []string{modulePath + "/internal/mpx"}
	cfg.RandOwners = []string{modulePath + "/internal/rng", modulePath + "/benchmark"}
	return cfg
}

// ignoreDirective is one parsed //gptlint:ignore comment, or one
// //gptlint:serializes-io marker — the same contract (a reason is required,
// a malformed one is bad-ignore, one that suppresses nothing is
// unused-ignore) applied to a lock instead of a line.
type ignoreDirective struct {
	pos    token.Position
	rule   string
	reason string
	bad    string // non-empty: malformed, with explanation
	used   bool
	lock   string // serializes-io markers only: the lock key of the marked mutex field
}

const (
	ignorePrefix       = "//gptlint:ignore"
	serializesIOMarker = "//gptlint:serializes-io"
)

// parseIgnores extracts every //gptlint:ignore directive from a file.
func parseIgnores(fset *token.FileSet, file *ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, ignorePrefix)
			if !ok {
				continue
			}
			d := &ignoreDirective{pos: fset.Position(c.Pos())}
			// A trailing "// ..." inside the comment is commentary about
			// the directive, not part of the reason.
			if i := strings.Index(text, "//"); i >= 0 {
				text = text[:i]
			}
			fields := strings.Fields(text)
			switch {
			case len(fields) == 0:
				d.bad = "missing rule name"
			case !knownRules[fields[0]]:
				d.bad = fmt.Sprintf("unknown rule %q", fields[0])
			case len(fields) < 2:
				d.bad = fmt.Sprintf("ignore for %s has no reason; the contract is //gptlint:ignore <rule> <reason>", fields[0])
			default:
				d.rule = fields[0]
				d.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, d)
		}
	}
	return out
}

// parseSerializesIO extracts every //gptlint:serializes-io marker from a
// file. The marker belongs on a sync.Mutex/RWMutex field of a named struct
// type — on the field's own line or the line above, like //gptlint:hotpath
// on a function — and declares that the mutex exists to serialize I/O, so
// holding it (and only locks like it) at a blocking operation is the design,
// not a finding. Anywhere else, or without a reason, it is malformed.
func parseSerializesIO(pkg *Package, file *ast.File) []*ignoreDirective {
	byComment := make(map[*ast.Comment]*ignoreDirective)
	var out []*ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if c.Text != serializesIOMarker && !strings.HasPrefix(c.Text, serializesIOMarker+" ") {
				continue
			}
			text := c.Text[len(serializesIOMarker):]
			if i := strings.Index(text, "//"); i >= 0 {
				text = text[:i]
			}
			d := &ignoreDirective{
				pos:    pkg.Fset.Position(c.Pos()),
				reason: strings.TrimSpace(text),
				bad:    "serializes-io marker is not on a (single) sync.Mutex/RWMutex field of a named struct type",
			}
			byComment[c] = d
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil
	}
	ast.Inspect(file, func(x ast.Node) bool {
		ts, ok := x.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, f := range st.Fields.List {
			named, _ := pkg.Info.TypeOf(f.Type).(*types.Named)
			if len(f.Names) != 1 || (!isNamedIn(named, "sync", "Mutex") && !isNamedIn(named, "sync", "RWMutex")) {
				continue
			}
			for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
				if cg == nil {
					continue
				}
				for _, c := range cg.List {
					d := byComment[c]
					if d == nil {
						continue
					}
					d.bad = ""
					if d.reason == "" {
						d.bad = "serializes-io marker has no reason; the contract is //gptlint:serializes-io <reason>"
					}
					// The key lockExprKey derives for a selector on this field.
					d.lock = pkg.Types.Name() + "." + ts.Name.Name + "." + f.Names[0].Name
				}
			}
		}
		return true
	})
	return out
}

// ignoreIndex holds every directive in the analyzed packages, keyed by
// file, so both the suppression pass and the call-graph collector (which
// severs ignored sites from transitive summaries) share one used-tracking
// view.
type ignoreIndex struct {
	byFile map[string][]*ignoreDirective // well-formed ignores only
	serial map[string]*ignoreDirective   // well-formed serializes-io markers, by lock key
	all    []*ignoreDirective            // every directive, in file order
}

func newIgnoreIndex(pkgs []*Package) *ignoreIndex {
	ix := &ignoreIndex{byFile: make(map[string][]*ignoreDirective), serial: make(map[string]*ignoreDirective)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range parseIgnores(pkg.Fset, file) {
				ix.all = append(ix.all, d)
				if d.bad == "" {
					ix.byFile[d.pos.Filename] = append(ix.byFile[d.pos.Filename], d)
				}
			}
			for _, d := range parseSerializesIO(pkg, file) {
				ix.all = append(ix.all, d)
				if d.bad == "" {
					ix.serial[d.lock] = d
				}
			}
		}
	}
	return ix
}

// serialized reports whether every held lock carries a serializes-io marker
// — the one case lock-held-across-blocking stays silent about — marking
// each marker used. One unmarked lock among them and the finding stands.
func (ix *ignoreIndex) serialized(held []heldLock) bool {
	for _, h := range held {
		if ix.serial[h.key] == nil {
			return false
		}
	}
	for _, h := range held {
		ix.serial[h.key].used = true
	}
	return true
}

// severs reports whether an ignore for any of the rules sits on pos's line
// or the line above, marking every match used. The call-graph collector
// uses this to drop ignored sites from transitive summaries: an ignore at
// a source site (say a sanctioned time.Now) both suppresses the local
// diagnostic and stops the taint from propagating to every caller.
func (ix *ignoreIndex) severs(pos token.Position, rules ...string) bool {
	hit := false
	for _, d := range ix.byFile[pos.Filename] {
		if d.pos.Line != pos.Line && d.pos.Line != pos.Line-1 {
			continue
		}
		for _, r := range rules {
			if d.rule == r {
				d.used = true
				hit = true
			}
		}
	}
	return hit
}

// suppress reports whether an ignore covers the diagnostic, marking it used.
func (ix *ignoreIndex) suppress(d Diagnostic) bool {
	hit := false
	for _, ig := range ix.byFile[d.File] {
		if ig.rule == d.Rule && (ig.pos.Line == d.Line || ig.pos.Line == d.Line-1) {
			ig.used = true
			hit = true
		}
	}
	return hit
}

// Run applies every enabled rule to every package and enforces the ignore
// contract: a //gptlint:ignore <rule> <reason> comment on the same line as
// a violation (or on the line directly above it) suppresses that
// diagnostic; an ignore that suppresses nothing is itself reported
// (unused-ignore), as is a malformed one (bad-ignore); a
// //gptlint:serializes-io marker on a mutex field is held to the same
// contract. The syntactic rules
// run per file; the interprocedural rules run over a call graph of the
// whole package set, so transitive findings are only as complete as the
// set of packages passed in — lint "./..." for whole-module guarantees.
// Diagnostics come back sorted by file/line/col.
func Run(pkgs []*Package, cfg Config) []Diagnostic {
	ix := newIgnoreIndex(pkgs)
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			raw = append(raw, checkFile(pkg, file, cfg)...)
		}
	}
	raw = append(raw, runInterprocedural(pkgs, &cfg, ix)...)
	if cfg.enabled(RuleDeadCode) {
		raw = append(raw, deadCode(pkgs)...)
	}

	var kept []Diagnostic
	for _, d := range raw {
		if !cfg.enabled(d.Rule) {
			continue
		}
		if ix.suppress(d) {
			continue
		}
		kept = append(kept, d)
	}
	partial := len(cfg.Rules) > 0
	for _, ig := range ix.all {
		switch {
		case ig.bad != "":
			kept = append(kept, Diagnostic{
				File: ig.pos.Filename, Line: ig.pos.Line, Col: ig.pos.Column,
				Rule: RuleBadIgnore, Msg: ig.bad,
			})
		case !ig.used && !partial:
			msg := fmt.Sprintf("gptlint:ignore %s suppresses nothing; delete it or move it onto the offending line", ig.rule)
			if ig.lock != "" {
				msg = fmt.Sprintf("gptlint:serializes-io on %s suppresses nothing; delete it", ig.lock)
			}
			kept = append(kept, Diagnostic{
				File: ig.pos.Filename, Line: ig.pos.Line, Col: ig.pos.Column,
				Rule: RuleUnusedIgnore, Msg: msg,
			})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].File != kept[j].File {
			return kept[i].File < kept[j].File
		}
		if kept[i].Line != kept[j].Line {
			return kept[i].Line < kept[j].Line
		}
		if kept[i].Col != kept[j].Col {
			return kept[i].Col < kept[j].Col
		}
		return kept[i].Rule < kept[j].Rule
	})
	return kept
}

// runInterprocedural builds the call graph and runs the transitive rules.
func runInterprocedural(pkgs []*Package, cfg *Config, ix *ignoreIndex) []Diagnostic {
	wantLockHeld := cfg.enabled(RuleLockBlocking)
	wantLockOrder := cfg.enabled(RuleLockOrder)
	need := cfg.enabled(RuleTransitiveWallclock) || cfg.enabled(RuleGoroutineLeak) ||
		cfg.enabled(RuleHotpathAlloc) || wantLockHeld || wantLockOrder
	if !need {
		return nil
	}
	g := buildGraph(pkgs, cfg, ix)
	g.propagate()
	var out []Diagnostic
	report := func(pos token.Position, rule, format string, args ...any) {
		out = append(out, Diagnostic{
			File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Rule: rule, Msg: fmt.Sprintf(format, args...),
		})
	}
	if cfg.enabled(RuleTransitiveWallclock) {
		g.transitiveWallclock(report)
	}
	if cfg.enabled(RuleHotpathAlloc) {
		g.hotpathAlloc(report)
	}
	if cfg.enabled(RuleGoroutineLeak) {
		g.goroutineLeaks(report)
	}
	if wantLockHeld || wantLockOrder {
		g.lockDiscipline(report, wantLockHeld)
		if wantLockOrder {
			g.lockOrderDiags(report)
		}
	}
	return out
}
