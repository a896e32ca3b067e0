package analysis

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// TestLoadRealPackageCleanUnderSuite loads the whole module — every
// target with its in-package test files, the standard-library closure
// type-checked from source — and runs the full analyzer suite over it.
// The merged tree must stay niidlint-clean, so any finding here is a
// regression in either a package or an analyzer. Loading the whole tree
// also covers test-only dependencies (internal/fl's tests import
// internal/partition), which must resolve to the same package the rest of
// the closure sees.
func TestLoadRealPackageCleanUnderSuite(t *testing.T) {
	pkgs, err := SharedLoader().LoadPackages("github.com/niid-bench/niidbench/...")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		seen[pkg.Path] = true
		loaded := make(map[string]bool)
		for _, f := range pkg.Syntax {
			loaded[pkg.Fset.Position(f.Pos()).Filename] = true
		}
		// Every _test.go file of the package itself (not its _test
		// package) must be in the syntax: codeccheck's coverage rules
		// read them.
		dir := filepath.Dir(pkg.Fset.Position(pkg.Syntax[0].Pos()).Filename)
		tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range tests {
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.PackageClauseOnly)
			if err != nil {
				t.Fatal(err)
			}
			if f.Name.Name == pkg.Name && !loaded[name] {
				t.Errorf("%s loaded without its test file %s", pkg.Path, filepath.Base(name))
			}
		}
		diags, err := RunAnalyzers(pkg, All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("unexpected finding on the real tree: %s", d)
		}
	}
	for _, want := range []string{"internal/fl", "internal/simnet", "internal/partition", "cmd/niidlint"} {
		if !seen["github.com/niid-bench/niidbench/"+want] {
			t.Errorf("%s is not among the %d loaded targets", want, len(pkgs))
		}
	}
}
