package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// testOnlyExportsAllowed names the exported functions, methods and struct
// fields under internal/ that may have no non-test caller (for a field,
// no non-test setter), each with its reason; a package path ending in "/"
// allows the whole package.
var testOnlyExportsAllowed = map[string]string{
	"internal/tensor.SetVectorKernels":       "test hook other packages' tests flip to cover both kernel paths",
	"internal/analysis.SharedLoader":         "the one loader the analyzer tests share, so the standard library is checked once per test binary",
	"internal/fedcli/flagtest/":              "helpers for the cmd/ flag-golden tests; a package tests import by design",
	"internal/fl.Simulation.RunRound":        "the root bench_test.go drives rounds through it",
	"internal/fl.Simulation.GlobalState":     "the root bench_test.go drives rounds through it",
	"internal/analysis.Loader.LoadFixture":   "loads an analyzer's testdata tree, the analysistest layout the fixture tests are built on",
	"internal/simnet.FaultPlan.CorruptProb":  "the live-adversary fault plan chaos_test.go drives: corrupted frames must be rejected without corrupting a round",
	"internal/simnet.FaultPlan.TruncateProb": "the live-adversary fault plan chaos_test.go drives: truncated frames must be rejected without corrupting a round",
}

// TestNoTestOnlyExports fails on an exported top-level function or method
// declared in a non-test file under internal/ that no non-test file of the
// module, its examples or the benchmark module references: API that only
// tests call is a second way to do what the program does, to be deleted
// with its tests moved to the call the program runs. An interface call
// leaves no reference to the method it reaches, so a method whose name is
// a method of any interface type the loaded packages declare or use
// (error's Error, fmt.Stringer's String, the package's own Conn) counts
// as used. An exported field of an exported struct type is flagged the
// same way when no non-test file sets it — by assignment, increment,
// composite-literal element or &field — since a knob only tests turn is
// a second program that only tests run. The root package, the public
// API, is out of scope.
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
	// A field is keyed by its declaration's position, which each loader's
	// separate import view of the same file shares; fields maps the
	// candidates' positions to their "path.Type.Field" names.
	fields := make(map[string]string)
	set := make(map[string]bool)
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
		pos := func(obj types.Object) string { return pkg.Fset.Position(obj.Pos()).String() }
		markSet := func(obj types.Object) {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				set[pos(v)] = true
			}
		}
		markSelector := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				markSet(pkg.Info.Uses[sel.Sel])
			}
		}
		for _, f := range pkg.Syntax {
			if inTest(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markSelector(lhs)
					}
				case *ast.IncDecStmt:
					markSelector(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markSelector(n.X)
					}
				case *ast.CompositeLit:
					st, ok := pkg.Info.TypeOf(n).Underlying().(*types.Struct)
					for i, elt := range n.Elts {
						if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
							if id, isID := kv.Key.(*ast.Ident); isID {
								markSet(pkg.Info.Uses[id])
							}
						} else if ok {
							markSet(st.Field(i))
						}
					}
				}
				return true
			})
		}
		path := strings.TrimPrefix(pkg.Path, module)
		if !strings.HasPrefix(path, "internal/") {
			continue
		}
		for _, f := range pkg.Syntax {
			if inTest(f.Pos()) {
				continue
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					method := ""
					if d.Recv != nil {
						method = d.Name.Name
					}
					declared[key(pkg.Info.Defs[d.Name].(*types.Func))] = method
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || !ts.Name.IsExported() {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, fld := range st.Fields.List {
							for _, name := range fld.Names {
								if name.IsExported() {
									fields[pos(pkg.Info.Defs[name])] = path + "." + ts.Name.Name + "." + name.Name
								}
							}
						}
					}
				}
			}
		}
	}
	var unused []string
	allowed := func(name string) bool {
		return testOnlyExportsAllowed[name] != "" || testOnlyExportsAllowed[name[:strings.Index(name, ".")]+"/"] != ""
	}
	for name, method := range declared {
		if used[name] || ifaceMethods[method] || allowed(name) {
			continue
		}
		unused = append(unused, name)
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported but only tests call it: delete it, or move its tests to the call the program runs", name)
	}
	var unset []string
	for p, name := range fields {
		declared[name] = "" // for the stale-allowlist check below
		if !set[p] && !allowed(name) {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("field %s is exported but only tests set it: delete it, or set it where the program runs", name)
	}
	for name := range testOnlyExportsAllowed {
		if _, ok := declared[name]; !ok && !strings.HasSuffix(name, "/") {
			t.Errorf("allowlisted %s is no longer declared: drop it from the allowlist", name)
		}
	}
}
