package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// testOnlyExportsAllowed names the exported functions and methods under
// internal/ that may have no non-test caller, each with its reason; a
// package path ending in "/" allows the whole package.
var testOnlyExportsAllowed = map[string]string{
	"internal/tensor.SetVectorKernels":     "test hook other packages' tests flip to cover both kernel paths",
	"internal/analysis.SharedLoader":       "the one loader the analyzer tests share, so the standard library is checked once per test binary",
	"internal/fedcli/flagtest/":            "helpers for the cmd/ flag-golden tests; a package tests import by design",
	"internal/fl.Simulation.RunRound":      "the root bench_test.go drives rounds through it",
	"internal/fl.Simulation.GlobalState":   "the root bench_test.go drives rounds through it",
	"internal/analysis.Loader.LoadFixture": "loads an analyzer's testdata tree, the analysistest layout the fixture tests are built on",
}

// TestNoTestOnlyExports fails on an exported top-level function or method
// declared in a non-test file under internal/ that no non-test file of the
// module, its examples or the benchmark module references: API that only
// tests call is a second way to do what the program does, to be deleted
// with its tests moved to the call the program runs. An interface call
// leaves no reference to the method it reaches, so a method whose name is
// a method of any interface type the loaded packages declare or use
// (error's Error, fmt.Stringer's String, the package's own Conn) counts
// as used. The root package, the public API, is out of scope.
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
	// key names a function as "path.Func" and a method as
	// "path.Type.Method", path relative to the module.
	key := func(fn *types.Func) string {
		name := strings.TrimPrefix(fn.Pkg().Path(), module) + "."
		if recv := fn.Signature().Recv(); recv != nil {
			typ := recv.Type()
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			if n, ok := typ.(*types.Named); ok {
				name += n.Obj().Name() + "."
			}
		}
		return name + fn.Name()
	}
	used := make(map[string]bool)
	// declared maps each candidate to its method name, "" for a function.
	declared := make(map[string]string)
	ifaceMethods := map[string]bool{"Error": true}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var addScope func(p *types.Package)
	addScope = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addScope(imp)
		}
	}
	for _, pkg := range append(root, bench...) {
		inTest := func(pos token.Pos) bool { return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go") }
		addScope(pkg.Types)
		for _, tv := range pkg.Info.Types {
			addIface(tv.Type)
		}
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && !inTest(id.Pos()) {
				used[key(fn.Origin())] = true
			}
		}
		path := strings.TrimPrefix(pkg.Path, module)
		if !strings.HasPrefix(path, "internal/") {
			continue
		}
		for _, f := range pkg.Syntax {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || inTest(fd.Pos()) {
					continue
				}
				method := ""
				if fd.Recv != nil {
					method = fd.Name.Name
				}
				declared[key(pkg.Info.Defs[fd.Name].(*types.Func))] = method
			}
		}
	}
	var unused []string
	for name, method := range declared {
		pkgPath := name[:strings.Index(name, ".")]
		if used[name] || ifaceMethods[method] || testOnlyExportsAllowed[name] != "" || testOnlyExportsAllowed[pkgPath+"/"] != "" {
			continue
		}
		unused = append(unused, name)
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported but only tests call it: delete it, or move its tests to the call the program runs", name)
	}
	for name := range testOnlyExportsAllowed {
		if _, ok := declared[name]; !ok && !strings.HasSuffix(name, "/") {
			t.Errorf("allowlisted %s is no longer declared: drop it from the allowlist", name)
		}
	}
}
