package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// corpusConfig mirrors the real repo's scoping onto the corpus module:
// every rule-specific package is "numeric", and mpxok plays internal/mpx.
func corpusConfig() Config {
	return Config{
		NumericPackages: []string{
			"corpus/wallclock",
			"corpus/maprange",
			"corpus/floateq",
			"corpus/errdrop",
			"corpus/ignores",
			"corpus/transwc",
			"corpus/mathexp",
		},
		GoroutineAllowed: []string{"corpus/mpxok", "corpus/goleak"},
		RandOwners:       []string{"corpus/rngok"},
	}
}

// expectation is one parsed `// want "regex"` comment.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

var (
	wantMarker = "// want "
	quotedRe   = regexp.MustCompile(`"([^"]*)"`)
)

// parseWants scans every corpus file for `// want "regex"` comments
// (several quoted regexes after one marker are several expectations).
func parseWants(t *testing.T, root string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, wantMarker)
			if idx < 0 {
				continue
			}
			tail := line[idx+len(wantMarker):]
			for _, m := range quotedRe.FindAllStringSubmatch(tail, -1) {
				rx, rerr := regexp.Compile(m[1])
				if rerr != nil {
					return fmt.Errorf("%s:%d: bad want regex %q: %v", path, i+1, m[1], rerr)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, rx: rx})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestGolden runs the analyzer over the testdata corpus and requires an
// exact bijection between diagnostics and `// want` expectations: every
// rule has at least one hit case, clean cases produce nothing, and the
// ignore contract (suppression, unused-ignore, bad-ignore) holds.
func TestGolden(t *testing.T) {
	root := filepath.Join("testdata", "src")
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if loader.Module != "corpus" {
		t.Fatalf("corpus module = %q, want corpus", loader.Module)
	}
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 8 {
		t.Fatalf("loaded %d corpus packages, want >= 8", len(pkgs))
	}
	diags := Run(pkgs, corpusConfig())
	wants := parseWants(t, root)
	if len(wants) == 0 {
		t.Fatal("no // want expectations found in corpus")
	}

	for _, d := range diags {
		s := d.Rule + ": " + d.Msg
		found := false
		for _, w := range wants {
			if w.matched || w.line != d.Line || !sameFile(w.file, d.File) {
				continue
			}
			if w.rx.MatchString(s) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}

	// Every rule must be exercised by at least one corpus hit.
	hit := make(map[string]bool)
	for _, d := range diags {
		hit[d.Rule] = true
	}
	for rule := range knownRules {
		if !hit[rule] {
			t.Errorf("rule %s has no hit case in the corpus", rule)
		}
	}
	for _, meta := range []string{RuleBadIgnore, RuleUnusedIgnore} {
		if !hit[meta] {
			t.Errorf("meta rule %s has no hit case in the corpus", meta)
		}
	}
}

func sameFile(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	return err1 == nil && err2 == nil && aa == bb
}

// TestDefaultConfig pins the production scoping: the eight numeric
// packages, the single goroutine-bearing package and the generator owners.
func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig("repro")
	for _, p := range []string{"gp", "la", "core", "opt", "acq", "sample", "sparse", "space"} {
		if !cfg.isNumeric("repro/internal/" + p) {
			t.Errorf("repro/internal/%s not numeric", p)
		}
	}
	if cfg.isNumeric("repro/internal/experiments") {
		t.Error("experiments must not be numeric (timing lives there)")
	}
	if !cfg.allowsGo("repro/internal/mpx") || cfg.allowsGo("repro/internal/gp") {
		t.Error("goroutine allowlist must be exactly internal/mpx")
	}
	for _, p := range []string{"repro/internal/rng", "repro/benchmark"} {
		if !cfg.ownsRand(p) {
			t.Errorf("%s may not build generators", p)
		}
	}
	for _, p := range []string{"repro/internal/core", "repro/internal/rngx", "repro/gptune/client"} {
		if cfg.ownsRand(p) {
			t.Errorf("%s may build generators", p)
		}
	}
}

// TestRulesFilter runs the corpus with a restricted rule set and checks
// that (a) only the named rules report, (b) disabling a rule silences its
// corpus hits, and (c) partial runs never report unused-ignore (an ignore
// for a disabled rule is not "unused", it is out of scope).
func TestRulesFilter(t *testing.T) {
	loader, err := NewLoader(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}

	cfg := corpusConfig()
	cfg.Rules = []string{RuleLockBlocking, RuleLockOrder}
	diags := Run(pkgs, cfg)
	if len(diags) == 0 {
		t.Fatal("filtered run produced no diagnostics")
	}
	for _, d := range diags {
		switch d.Rule {
		case RuleLockBlocking, RuleLockOrder, RuleBadIgnore:
		default:
			t.Errorf("rule %s reported despite filter: %s", d.Rule, d)
		}
	}

	// The full corpus has hotpath-alloc hits; with the rule filtered out
	// they must vanish, and nothing may surface as unused-ignore instead.
	cfg.Rules = []string{RuleWallclock}
	for _, d := range Run(pkgs, cfg) {
		if d.Rule == RuleHotpathAlloc {
			t.Errorf("hotpath-alloc reported while disabled: %s", d)
		}
		if d.Rule == RuleUnusedIgnore {
			t.Errorf("unused-ignore reported on a partial run: %s", d)
		}
	}
}

// TestIgnoreParsing covers directive parsing edges that the corpus cannot
// express line-by-line.
func TestIgnoreParsing(t *testing.T) {
	loader, err := NewLoader(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{"./ignores"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	igs := parseIgnores(pkgs[0].Fset, pkgs[0].Files[0])
	if len(igs) != 5 {
		t.Fatalf("parsed %d ignore directives, want 5", len(igs))
	}
	var bad int
	for _, ig := range igs {
		if ig.bad != "" {
			bad++
			continue
		}
		if ig.reason == "" || strings.Contains(ig.reason, "//") {
			t.Errorf("directive at %v: reason %q should be non-empty and stripped of trailing comments", ig.pos, ig.reason)
		}
	}
	if bad != 2 {
		t.Errorf("parsed %d malformed directives, want 2", bad)
	}
}

// TestExpBodyFuncsFollowGOROOT derives no-math-exp's list from the
// toolchain's own source: every exported function of $GOROOT/src/math whose
// amd64 build calls, directly or through other functions of the package, the
// assembly body archExp. A Go release that routes another function through
// Exp, or stops routing one, fails here.
func TestExpBodyFuncsFollowGOROOT(t *testing.T) {
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH = "linux", "amd64"
	bp, err := ctx.ImportDir(filepath.Join(ctx.GOROOT, "src", "math"), 0)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	calls := make(map[string][]string) // function → the package-level functions it calls
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if id, ok := c.Fun.(*ast.Ident); ok {
						calls[fd.Name.Name] = append(calls[fd.Name.Name], id.Name)
					}
				}
				return true
			})
		}
	}
	reaches := map[string]bool{"archExp": true}
	for grew := true; grew; {
		grew = false
		for fn, callees := range calls {
			for _, c := range callees {
				if reaches[c] && !reaches[fn] {
					reaches[fn], grew = true, true
				}
			}
		}
	}
	var derived, listed []string
	for fn := range reaches {
		if ast.IsExported(fn) {
			derived = append(derived, fn)
		}
	}
	for fn := range expBodyFuncs {
		listed = append(listed, fn)
	}
	sort.Strings(derived)
	sort.Strings(listed)
	if strings.Join(derived, " ") != strings.Join(listed, " ") {
		t.Errorf("math functions reaching archExp on amd64: %v; expBodyFuncs lists %v", derived, listed)
	}
}
