package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// testOnlyExportsAllowed names the exported functions under internal/
// that may have no non-test caller, each with its reason; a package path
// ending in "/" allows the whole package.
var testOnlyExportsAllowed = map[string]string{
	"internal/tensor.SetVectorKernels": "test hook other packages' tests flip to cover both kernel paths",
	"internal/analysis.SharedLoader":   "the one loader the analyzer tests share, so the standard library is checked once per test binary",
	"internal/fedcli/flagtest/":        "helpers for the cmd/ flag-golden tests; a package tests import by design",
}

// TestNoTestOnlyExports fails on an exported top-level function declared
// in a non-test file under internal/ that no non-test file of the module,
// its examples or the benchmark module references: API that only tests
// call is a second way to do what the program does, to be deleted with
// its tests moved to the call the program runs. Methods are out of scope
// (an interface call leaves no reference to the method it reaches), and so
// is the root package, which is the public API.
func TestNoTestOnlyExports(t *testing.T) {
	const module = "github.com/niid-bench/niidbench/"
	root, err := SharedLoader().LoadPackages(module + "...")
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark module lies outside the root module's ./..., so it is
	// loaded by a loader rooted there.
	bench, err := NewLoader("../../benchmark").LoadPackages(".")
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	declared := make(map[string]bool)
	for _, pkg := range append(root, bench...) {
		inTest := func(pos token.Pos) bool { return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go") }
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Signature().Recv() == nil && !inTest(id.Pos()) {
				used[strings.TrimPrefix(fn.Pkg().Path(), module)+"."+fn.Name()] = true
			}
		}
		path := strings.TrimPrefix(pkg.Path, module)
		if !strings.HasPrefix(path, "internal/") {
			continue
		}
		for _, f := range pkg.Syntax {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() && !inTest(fd.Pos()) {
					declared[path+"."+fd.Name.Name] = true
				}
			}
		}
	}
	var unused []string
	for name := range declared {
		pkgPath := name[:strings.LastIndex(name, ".")]
		if used[name] || testOnlyExportsAllowed[name] != "" || testOnlyExportsAllowed[pkgPath+"/"] != "" {
			continue
		}
		unused = append(unused, name)
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported but only tests call it: delete it, or move its tests to the call the program runs", name)
	}
	for name := range testOnlyExportsAllowed {
		if !strings.HasSuffix(name, "/") && !declared[name] {
			t.Errorf("allowlisted %s is no longer declared: drop it from the allowlist", name)
		}
	}
}
