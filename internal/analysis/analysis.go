// Package analysis is niidbench's in-tree static-analysis suite: four
// checkers that mechanize the invariants the codebase otherwise enforces
// only through tests and review vigilance — codec/test symmetry and one
// byte layer, internal/le, for every wire and snapshot byte (codeccheck),
// pool buffer pairing (poolcheck),
// deterministic fold order (detercheck), and provable goroutine exits
// (leakcheck).
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Reportf, want-comment fixtures) but is built on the
// standard library alone: this repository vendors nothing and builds in
// a network-free environment. One `go list` names the module packages,
// which the loader type-checks from source; the standard library is
// type-checked from source by go/importer's "source" importer, with cgo
// off (see load.go).
//
// Findings are suppressed one line at a time with
//
//	//lint:allow <check> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory: a reasonless allow does not suppress, it annotates the
// finding instead, so the justification lives next to the exception.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the checker in diagnostics and //lint:allow
	// comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports violations found in the pass's package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned and attributed to its check.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// A Pass provides one analyzer with one type-checked package (target
// packages include their in-package _test.go files, so checks can demand
// test coverage) and collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PkgIs reports whether pkg is the package named by suffix: an exact
// import-path match or a path ending in "/<suffix>". Matching by suffix is
// what lets the analyzers recognize both the real module packages
// (".../internal/tensor") and the stub packages analyzer fixtures declare
// under testdata ("tensor").
func PkgIs(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// suppression is one parsed //lint:allow comment.
type suppression struct {
	line   int
	check  string
	reason string
}

// parseSuppressions extracts //lint:allow comments from a file.
func parseSuppressions(fset *token.FileSet, f *ast.File) []suppression {
	var out []suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "lint:allow") {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:allow"))
			fields := strings.Fields(rest)
			s := suppression{line: fset.Position(c.Pos()).Line}
			if len(fields) > 0 {
				s.check = fields[0]
			}
			if len(fields) > 1 {
				s.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, s)
		}
	}
	return out
}

// RunAnalyzers runs each analyzer over pkg, applies //lint:allow
// suppressions, and returns the surviving diagnostics sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	// Suppressions are per file+line; index by filename.
	sups := make(map[string][]suppression)
	for _, f := range pkg.Syntax {
		name := pkg.Fset.Position(f.Pos()).Filename
		sups[name] = append(sups[name], parseSuppressions(pkg.Fset, f)...)
	}
	var all []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range pass.diags {
			if sup, ok := matchSuppression(sups[d.Pos.Filename], d); ok {
				if sup.reason == "" {
					d.Message += " (//lint:allow ignored: a reason is required)"
				} else {
					continue
				}
			}
			all = append(all, d)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return all, nil
}

// matchSuppression finds a suppression for d's check on the diagnostic's
// line (trailing comment) or the line directly above (standalone comment).
func matchSuppression(sups []suppression, d Diagnostic) (suppression, bool) {
	for _, s := range sups {
		if s.check != d.Check {
			continue
		}
		if s.line == d.Pos.Line || s.line == d.Pos.Line-1 {
			return s, true
		}
	}
	return suppression{}, false
}

// All returns the full suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CodecCheck,
		PoolCheck,
		DeterCheck,
		LeakCheck,
	}
}

// walk is a convenience over ast.Inspect that never prunes.
func walk(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if n != nil {
			fn(n)
		}
		return true
	})
}

// calleeObj returns the function or method a call expression resolves to,
// or nil when it is not a call of a named function or method.
func calleeObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// namedTypeName returns the name of t's named (or aliased) type and its
// package, unwrapping one pointer.
func namedTypeName(t types.Type) (pkg *types.Package, name string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch tt := types.Unalias(t).(type) {
	case *types.Named:
		obj := tt.Obj()
		return obj.Pkg(), obj.Name()
	}
	return nil, ""
}

// containsIdentOf reports whether the subtree contains an identifier
// resolving to obj.
func containsIdentOf(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	walk(n, func(n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
	})
	return found
}
