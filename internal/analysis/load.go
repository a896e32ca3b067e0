package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// This file is the package loader behind the analyzers: a small,
// offline-capable stand-in for golang.org/x/tools/go/packages with two
// sources of packages.
//
//   - Module packages: one `go list -deps -test -json` per LoadPackages
//     call names every package in the patterns' closure with its files.
//     The loader parses each one and type-checks its import view (no test
//     files, no function bodies) once, in a cache. Targets, the packages
//     the patterns name, are checked again WITH their in-package _test.go
//     files so analyzers can demand test coverage.
//   - The standard library: go/importer's "source" importer, which picks
//     files by build constraint, maps GOROOT vendor/ paths and caches each
//     package it checks. No export data is installed in this toolchain, so
//     the standard library is type-checked from source as well. Cgo is
//     off, so the pure-Go variants of net and friends are selected and no
//     C compiler is needed.
//
// LoadFixture loads GOPATH-style trees under an analyzer's testdata root
// (testdata/<check>/src/<path>), the analysistest convention; fixture
// imports resolve first against the fixture tree, then against the module
// packages listed so far and the standard library.

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path   string
	Name   string
	Fset   *token.FileSet
	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// listed is the subset of `go list -json` output the loader needs.
type listed struct {
	ImportPath  string
	Dir         string
	Standard    bool
	DepOnly     bool
	ForTest     string
	GoFiles     []string
	TestGoFiles []string
}

// Loader loads and caches type-checked packages. It is safe for use from
// one goroutine; the process-wide shared loader serializes internally.
type Loader struct {
	Fset *token.FileSet
	// Dir is the directory `go list` runs in (the module root or any
	// directory inside it). Empty means the current directory.
	Dir string

	mu sync.Mutex
	// std is the source importer every standard-library import goes to.
	std types.Importer
	// module holds the non-standard packages go list has named, by import
	// path.
	module map[string]*listed
	// deps caches import views (no test files): module and standard
	// packages by import path, fixture packages by root and path.
	deps map[string]*types.Package
}

// NewLoader creates a loader rooted at dir.
func NewLoader(dir string) *Loader {
	// The source importer selects standard-library files through
	// build.Default. With cgo on it would run the cgo tool, which needs a
	// C compiler, on net and os/user; with cgo off it takes their pure-Go
	// files, the same set `go list` picks under CGO_ENABLED=0.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		Dir:    dir,
		std:    importer.ForCompiler(fset, "source", nil),
		module: make(map[string]*listed),
		deps:   make(map[string]*types.Package),
	}
}

var (
	sharedLoaderOnce sync.Once
	sharedLoader     *Loader
)

// SharedLoader returns the process-wide loader, used by the analyzer
// fixture tests so the standard-library closure is type-checked once per
// test binary rather than once per fixture.
func SharedLoader() *Loader {
	sharedLoaderOnce.Do(func() { sharedLoader = NewLoader("") })
	return sharedLoader
}

// parseFiles parses the named files from dir.
func (l *Loader) parseFiles(dir string, names []string, mode parser.Mode) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, mode|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// loaderImporter adapts the loader (plus an optional fixture root) to the
// go/types Importer interface.
type loaderImporter struct {
	l           *Loader
	fixtureRoot string // "" outside fixture mode
}

func (li loaderImporter) Import(path string) (*types.Package, error) {
	l := li.l
	if li.fixtureRoot != "" {
		dir := filepath.Join(li.fixtureRoot, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			names, err := fixtureFiles(dir, false)
			if err != nil {
				return nil, err
			}
			return l.dep("fixture:"+li.fixtureRoot+"\x00"+path, path, dir, names, li)
		}
	}
	if m, ok := l.module[path]; ok {
		return l.dep(path, path, m.Dir, m.GoFiles, loaderImporter{l: l})
	}
	// The source importer rescans a package's directory on every call,
	// even for a package it has already checked, so its results are
	// cached here as well.
	if pkg, ok := l.deps[path]; ok {
		return pkg, nil
	}
	pkg, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.deps[path] = pkg
	return pkg, nil
}

// dep type-checks the import view of path from dir's named files once,
// caching it under key.
func (l *Loader) dep(key, path, dir string, names []string, imp types.Importer) (*types.Package, error) {
	if pkg, ok := l.deps[key]; ok {
		return pkg, nil
	}
	files, err := l.parseFiles(dir, names, 0)
	if err != nil {
		return nil, err
	}
	// An importer sees only the package's declarations, so function
	// bodies are skipped here, as the source importer skips them.
	cfg := typesConfig(imp)
	cfg.IgnoreFuncBodies = true
	pkg, err := cfg.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking dependency %s: %w", path, err)
	}
	l.deps[key] = pkg
	return pkg, nil
}

// typesConfig builds the go/types configuration shared by every check.
func typesConfig(imp types.Importer) *types.Config {
	return &types.Config{Importer: imp, Sizes: types.SizesFor("gc", build.Default.GOARCH)}
}

// check type-checks files as the analysis target path, recording full
// type information.
func (l *Loader) check(path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	tpkg, err := typesConfig(imp).Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Name: tpkg.Name(), Fset: l.Fset, Syntax: files, Types: tpkg, Info: info}, nil
}

// LoadPackages loads the packages matched by patterns as analysis
// targets: syntax includes in-package test files, comments are retained,
// and full type information is recorded.
func (l *Loader) LoadPackages(patterns ...string) ([]*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cmd := exec.Command("go", append([]string{"list", "-deps", "-test",
		"-json=ImportPath,Dir,Standard,DepOnly,ForTest,GoFiles,TestGoFiles"}, patterns...)...)
	cmd.Dir = l.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	// The whole listing is decoded before anything is checked: -deps names
	// a test-only dependency after the target whose tests import it, and a
	// module package not yet in l.module would go to the source importer,
	// which builds a second copy of every module package it imports.
	var targets []*listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		m := new(listed)
		if err := dec.Decode(m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		// Test variants ("pkg [pkg.test]", "pkg.test") are skipped: the
		// plain entry already names TestGoFiles.
		if m.ForTest != "" || strings.HasSuffix(m.ImportPath, ".test") {
			continue
		}
		if !m.Standard {
			l.module[m.ImportPath] = m
		}
		if !m.DepOnly {
			targets = append(targets, m)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	pkgs := make([]*Package, 0, len(targets))
	for _, m := range targets {
		files, err := l.parseFiles(m.Dir, slices.Concat(m.GoFiles, m.TestGoFiles), parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p, err := l.check(m.ImportPath, files, loaderImporter{l: l})
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// fixtureFiles lists the .go files of a fixture package directory, its
// _test.go files only when tests is set.
func fixtureFiles(dir string, tests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && (tests || !strings.HasSuffix(name, "_test.go")) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: fixture %s has no .go files", dir)
	}
	return names, nil
}

// LoadFixture loads root/src/<path> as an analysis target, the
// analysistest layout: all of the directory's .go files (tests included)
// form the package, and imports resolve against root/src first, then
// against the module packages listed so far and the standard library.
func (l *Loader) LoadFixture(root, path string) (*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	src := filepath.Join(root, "src")
	dir := filepath.Join(src, filepath.FromSlash(path))
	names, err := fixtureFiles(dir, true)
	if err != nil {
		return nil, err
	}
	files, err := l.parseFiles(dir, names, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return l.check(path, files, loaderImporter{l: l, fixtureRoot: src})
}
