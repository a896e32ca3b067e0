package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PoolCheck mechanizes the tensor.Pool buffer discipline: a tensor
// obtained with Pool.GetRaw, the pool's one getter, must either be returned to a pool
// with Put inside the same function (directly, deferred, or from a
// closure such as an error-path `fail` helper), or be handed off through
// a *documented* ownership transfer — returned, sent on a channel, or
// stored into a struct — from a function whose doc comment acknowledges
// the pool contract (mentions "pool" or "Put"). A GetRaw with neither is
// the unpaired-buffer leak PRs 4–8 kept re-finding by hand; an
// undocumented escape is the same leak deferred to whoever holds the
// struct.
//
// Workspace.GetRaw is exempt (Workspace.Release returns everything in
// bulk), as is package tensor itself (the pool implementation).
var PoolCheck = &Analyzer{
	Name: "poolcheck",
	Doc:  "tensor.Pool buffers must reach a Put on every owner or escape through a documented transfer",
	Run:  runPoolCheck,
}

func runPoolCheck(pass *Pass) error {
	if PkgIs(pass.Pkg, "tensor") {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolUsage(pass, fd)
		}
	}
	return nil
}

// isPoolMethod reports whether call invokes the named method on a
// tensor.Pool receiver.
func isPoolMethod(pass *Pass, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	pkg, name := namedTypeName(tv.Type)
	return name == "Pool" && PkgIs(pkg, "tensor")
}

func checkPoolUsage(pass *Pass, fd *ast.FuncDecl) {
	// Phase 1: find GetRaw results bound to identifiers.
	type acquisition struct {
		obj  types.Object
		call *ast.CallExpr
	}
	var acqs []acquisition
	walk(fd.Body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isPoolMethod(pass, call, "GetRaw") {
			return
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return
		}
		acqs = append(acqs, acquisition{obj: obj, call: call})
	})
	if len(acqs) == 0 {
		return
	}

	// Phase 2: for each acquired tensor, look for a Put and for transfers.
	for _, acq := range acqs {
		putFound := false
		transferred := false
		walk(fd.Body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isPoolMethod(pass, n, "Put") {
					for _, arg := range n.Args {
						if containsIdentOf(pass.TypesInfo, arg, acq.obj) {
							putFound = true
						}
					}
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if carriesBuffer(pass, res, acq.obj) {
						transferred = true
					}
				}
			case *ast.SendStmt:
				if carriesBuffer(pass, n.Value, acq.obj) {
					transferred = true
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if carriesBuffer(pass, elt, acq.obj) {
						transferred = true
					}
				}
			case *ast.AssignStmt:
				// x.field = v / xs[i] = v hands ownership to the holder.
				for i, lhs := range n.Lhs {
					switch lhs.(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
						if i < len(n.Rhs) && carriesBuffer(pass, n.Rhs[i], acq.obj) {
							transferred = true
						}
					}
				}
			}
		})
		switch {
		case putFound:
			// Paired: at least one path recycles the buffer here. Return-
			// path completeness stays with tests; the analyzer guarantees
			// the pairing exists at all.
		case transferred:
			if !docMentionsPoolContract(fd) {
				pass.Reportf(acq.call.Pos(), "pooled tensor from GetRaw escapes %s without a documented ownership transfer: mention the pool contract (who calls Put) in the function's doc comment", fd.Name.Name)
			}
		default:
			pass.Reportf(acq.call.Pos(), "pooled tensor from GetRaw is never returned with Put and never handed off: unpaired pool buffer")
		}
	}
}

// carriesBuffer reports whether expr mentions the acquired buffer AND
// has a type that can alias it (pointer, slice, struct, interface, ...).
// Returning t hands the buffer off; returning t.Data[0] or len(t.Data)
// yields a scalar copy and transfers nothing.
func carriesBuffer(pass *Pass, expr ast.Expr, obj types.Object) bool {
	if !containsIdentOf(pass.TypesInfo, expr, obj) {
		return false
	}
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return true // no type info: stay conservative, treat as a transfer
	}
	_, isBasic := tv.Type.Underlying().(*types.Basic)
	return !isBasic
}

// docMentionsPoolContract reports whether the function's doc comment
// acknowledges pooled-buffer ownership.
func docMentionsPoolContract(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	text := strings.ToLower(fd.Doc.Text())
	return strings.Contains(text, "pool") || strings.Contains(text, "put")
}
