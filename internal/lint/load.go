// Package lint is gptlint's analysis engine: a from-scratch static
// analyzer for the repo's determinism and concurrency invariants, built
// only on the stdlib toolchain (go/parser, go/ast, go/types, go/importer —
// no golang.org/x/tools). The rules encode the properties PR 1's parallel
// modeling hot path depends on: no global math/rand, no wall-clock reads
// in numeric code, no map-iteration-order-dependent accumulation, all
// goroutines routed through internal/mpx, no float ==, and no silently
// dropped errors. One more rule keeps the tree lean: no function of an
// internal/ package that only tests reach. See DESIGN.md §7.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked, analysis-ready package.
type Package struct {
	Path  string // import path, e.g. repro/internal/gp
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files only, sorted by filename
	Types *types.Package
	Info  *types.Info

	mod *module // the whole module, whatever patterns loaded this package
}

// module is every package of a module, whatever patterns Load was given, so
// that a rule asking whether anything uses a function sees every caller.
type module struct {
	path     string
	pkgs     []*Package      // sorted by import path
	excluded map[string]bool // identifiers of the build-excluded non-test files (addReferences)
}

// Loader parses and type-checks packages of a single module. Imports of
// other packages in the same module are resolved from the loader's own
// cache (checked on demand); everything else — the stdlib — goes through
// the source importer, so no compiled export data is required.
type Loader struct {
	Root   string // module root (directory containing go.mod)
	Module string // module path from go.mod

	fset *token.FileSet
	src  types.ImporterFrom
	pkgs map[string]*Package // by import path; nil value marks in-progress
	mod  *module
}

// NewLoader locates the module root at or above dir and prepares a loader.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, err := findModuleRoot(abs)
	if err != nil {
		return nil, err
	}
	mod, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	srcImp, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Root:   root,
		Module: mod,
		fset:   fset,
		src:    srcImp,
		pkgs:   make(map[string]*Package),
	}, nil
}

func findModuleRoot(dir string) (string, error) {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		d = parent
	}
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load resolves the given patterns ("./...", "./internal/...", "./gptune")
// against the module tree and returns the matched packages, parsed and
// type-checked. Directories named testdata, hidden directories, and
// directories with no non-test Go files are skipped. Every other package of
// the module is type-checked too, as the context the dead-code rule reads.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	if err := l.loadModule(); err != nil {
		return nil, err
	}
	dirs, err := l.resolve(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		path := l.importPathFor(dir)
		pkg, err := l.check(path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// loadModule type-checks every package of the module once and collects the
// identifiers of its build-excluded non-test files.
func (l *Loader) loadModule() error {
	if l.mod != nil {
		return nil
	}
	dirs, err := l.resolve([]string{"./..."})
	if err != nil {
		return err
	}
	m := &module{path: l.Module, excluded: make(map[string]bool)}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		pkg, err := l.check(l.importPathFor(dir))
		if err != nil {
			return err
		}
		m.pkgs = append(m.pkgs, pkg)
		_, excluded, err := goFileNames(dir)
		if err != nil {
			return err
		}
		for _, name := range excluded {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			addReferences(f, m.excluded)
		}
	}
	for _, pkg := range m.pkgs {
		pkg.mod = m
	}
	l.mod = m
	return nil
}

// addReferences adds every identifier of f's declarations to names, a
// declared function's own name apart: both halves of a twin declare it. A
// file the build context leaves out (the other half of a platform twin, a
// purego body) is not type-checked, so its references are matched by name.
func addReferences(f *ast.File, names map[string]bool) {
	for _, d := range f.Decls {
		fd, _ := d.(*ast.FuncDecl)
		ast.Inspect(d, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && (fd == nil || id != fd.Name) {
				names[id.Name] = true
			}
			return true
		})
	}
}

// resolve expands patterns into absolute package directories.
func (l *Loader) resolve(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		p := pat
		if p == "..." || strings.HasSuffix(p, "/...") {
			recursive = true
			p = strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")
			if p == "" {
				p = "."
			}
		}
		base := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(p, "./")))
		info, err := os.Stat(base)
		if err != nil || !info.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q: no such directory %s", pat, base)
		}
		if !recursive {
			if l.hasGoFiles(base) {
				add(base)
			}
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if l.hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func (l *Loader) hasGoFiles(dir string) bool {
	names, _, err := goFileNames(dir)
	return err == nil && len(names) > 0
}

// goFileNames lists the non-test .go files of dir that the go tool would
// build here, sorted, and apart from them the ones it would leave out: a
// _GOOS / _GOARCH file-name suffix or a //go:build line that excludes this
// platform excludes the file, so of a platform twin (x_amd64.go beside a
// "//go:build !amd64" file) exactly one half loads.
func goFileNames(dir string) (names, excluded []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// MatchFile also rejects names starting with "." or "_".
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, nil, err
		}
		if !match {
			excluded = append(excluded, name)
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, excluded, nil
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

func (l *Loader) dirFor(importPath string) string {
	if importPath == l.Module {
		return l.Root
	}
	rel := strings.TrimPrefix(importPath, l.Module+"/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// check parses and type-checks the package at importPath (module-internal),
// memoized. Valid Go has no import cycles, so recursion terminates.
func (l *Loader) check(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", importPath)
		}
		return pkg, nil
	}
	l.pkgs[importPath] = nil // mark in-progress
	dir := l.dirFor(importPath)
	names, _, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		delete(l.pkgs, importPath)
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: &moduleImporter{l: l}}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// moduleImporter serves module-internal imports from the loader's cache and
// delegates everything else to the source importer.
type moduleImporter struct {
	l *Loader
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.l.Root, 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == m.l.Module || strings.HasPrefix(path, m.l.Module+"/") {
		pkg, err := m.l.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.l.src.ImportFrom(path, dir, mode)
}
