package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CodecCheck mechanizes the wire-codec discipline of internal/simnet:
//
//  1. Marshal/Unmarshal symmetry — every message type encoded by
//     AppendMarshal's type switch must be decoded by Unmarshal, and vice
//     versa. An asymmetric codec is how a "new frame" silently becomes an
//     unknown-tag error on one side of a rolling upgrade.
//  2. Test coverage per message type — each marshalled type must appear,
//     as a composite literal, in (a) a test that calls both Marshal and
//     Unmarshal (round-trip), (b) a test that decodes truncations of an
//     encoded message in a loop (truncation sweep), and (c) a Fuzz
//     function (corpus seed for FuzzDecodeMsg).
//  3. Bounded length reads — a raw binary.LittleEndian/BigEndian
//     Uint16/32/64 read must be provably in range: reading from a slice of
//     a fixed-size array that is long enough, or guarded by an earlier
//     if statement in the same function that mentions the buffer (length
//     check) or the decoded value (receive-limit check). Unguarded raw
//     reads are how a hostile length prefix turns into an out-of-bounds
//     panic or an unbounded allocation before SetRecvLimit can refuse it.
//  4. Version gating — every file that defines a Marshal*/Unmarshal*
//     function must reference ProtoVersion, so a new codec file cannot
//     ship without being tied into the version negotiation that gates
//     every layout change.
//
// Rules 1, 2 and 4 run only in the package that defines the codec (a
// package named simnet with an AppendMarshal function); rule 3 runs in
// the wire/persistence packages (simnet and fl).
var CodecCheck = &Analyzer{
	Name: "codeccheck",
	Doc:  "wire codec symmetry, per-message test coverage, bounded length reads, and version gating",
	Run:  runCodecCheck,
}

func runCodecCheck(pass *Pass) error {
	inSimnet := PkgIs(pass.Pkg, "simnet")
	if inSimnet || PkgIs(pass.Pkg, "fl") {
		checkRawLengthReads(pass)
	}
	if !inSimnet {
		return nil
	}
	marshalTypes, marshalPos := marshalSwitchTypes(pass)
	if len(marshalTypes) == 0 {
		return nil // no codec in this package
	}
	checkCodecSymmetry(pass, marshalTypes, marshalPos)
	checkCodecTestCoverage(pass, marshalTypes, marshalPos)
	checkVersionGating(pass)
	return nil
}

// marshalSwitchTypes collects the message types handled by the type
// switch in AppendMarshal (or Marshal, when AppendMarshal is absent),
// keyed by type name, with the position of each case clause.
func marshalSwitchTypes(pass *Pass) (map[string]bool, map[string]token.Pos) {
	decl := findFuncDecl(pass, "AppendMarshal")
	if decl == nil {
		decl = findFuncDecl(pass, "Marshal")
	}
	if decl == nil || decl.Body == nil {
		return nil, nil
	}
	typesSet := make(map[string]bool)
	pos := make(map[string]token.Pos)
	walk(decl.Body, func(n ast.Node) {
		ts, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return
		}
		for _, stmt := range ts.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, texpr := range cc.List {
				tv, ok := pass.TypesInfo.Types[texpr]
				if !ok {
					continue
				}
				if pkg, name := namedTypeName(tv.Type); pkg == pass.Pkg && name != "" {
					typesSet[name] = true
					if _, seen := pos[name]; !seen {
						pos[name] = texpr.Pos()
					}
				}
			}
		}
	})
	return typesSet, pos
}

// checkCodecSymmetry demands that Unmarshal constructs every type the
// marshal switch handles, and marshals every type Unmarshal can produce.
func checkCodecSymmetry(pass *Pass, marshalTypes map[string]bool, marshalPos map[string]token.Pos) {
	decl := findFuncDecl(pass, "Unmarshal")
	if decl == nil || decl.Body == nil {
		for _, name := range sortedKeys(marshalTypes) {
			pass.Reportf(marshalPos[name], "message type %s is marshalled but the package has no Unmarshal function", name)
		}
		return
	}
	// Types referenced anywhere in Unmarshal's body — var declarations
	// (var m GlobalMsg), composite literals (ShutdownMsg{}), or helper
	// return types — count as decodable. Helpers called from Unmarshal are
	// followed one level so chunk decoding split into unmarshalChunk-style
	// functions is seen.
	decodable := make(map[string]bool)
	collect := func(body ast.Node) {
		walk(body, func(n ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok {
				return
			}
			obj := pass.TypesInfo.Uses[id]
			if tn, ok := obj.(*types.TypeName); ok && tn.Pkg() == pass.Pkg {
				decodable[tn.Name()] = true
			}
		})
	}
	collect(decl.Body)
	walk(decl.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if fn := calleeObj(pass.TypesInfo, call); fn != nil && fn.Pkg() == pass.Pkg {
			if helper := findFuncDecl(pass, fn.Name()); helper != nil && helper.Body != nil {
				collect(helper.Body)
			}
		}
	})
	for _, name := range sortedKeys(marshalTypes) {
		if !decodable[name] {
			pass.Reportf(marshalPos[name], "message type %s is marshalled but never decoded by Unmarshal: codec is asymmetric", name)
		}
	}
}

// testEvidence summarizes what one test/fuzz function exercises.
type testEvidence struct {
	isFuzz         bool
	literals       map[string]bool
	callsMarshal   bool
	callsUnmarshal bool
	truncSweep     bool
}

// checkCodecTestCoverage demands round-trip, truncation-sweep and fuzz
// seed evidence for every marshalled message type.
func checkCodecTestCoverage(pass *Pass, marshalTypes map[string]bool, marshalPos map[string]token.Pos) {
	var evidence []testEvidence
	for _, f := range pass.Files {
		if !pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			isTest := strings.HasPrefix(fd.Name.Name, "Test")
			isFuzz := strings.HasPrefix(fd.Name.Name, "Fuzz")
			if !isTest && !isFuzz {
				continue
			}
			evidence = append(evidence, gatherTestEvidence(pass, fd, isFuzz))
		}
	}
	for _, name := range sortedKeys(marshalTypes) {
		var roundTrip, trunc, fuzz bool
		for _, ev := range evidence {
			if !ev.literals[name] {
				continue
			}
			if ev.callsMarshal && ev.callsUnmarshal {
				roundTrip = true
			}
			if ev.truncSweep {
				trunc = true
			}
			if ev.isFuzz {
				fuzz = true
			}
		}
		if !roundTrip {
			pass.Reportf(marshalPos[name], "message type %s has no codec round-trip test (a Test func with a %s literal calling Marshal and Unmarshal)", name, name)
		}
		if !trunc {
			pass.Reportf(marshalPos[name], "message type %s has no truncation sweep (a test decoding b[:cut] over every prefix of an encoded %s)", name, name)
		}
		if !fuzz {
			pass.Reportf(marshalPos[name], "message type %s is not seeded into the decode fuzz corpus (no %s literal in a Fuzz function)", name, name)
		}
	}
}

// gatherTestEvidence scans one test/fuzz function, following calls to
// same-package helpers one level so table-driven tests whose fixtures
// live in a helper (allMsgFixtures-style) attribute their literals to
// the tests that consume them.
func gatherTestEvidence(pass *Pass, fd *ast.FuncDecl, isFuzz bool) testEvidence {
	ev := testEvidence{isFuzz: isFuzz, literals: make(map[string]bool)}
	scanEvidenceBody(pass, fd.Body, &ev, true)
	return ev
}

func scanEvidenceBody(pass *Pass, body ast.Node, ev *testEvidence, followCalls bool) {
	walk(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[n]
			if !ok {
				return
			}
			if pkg, name := namedTypeName(tv.Type); pkg == pass.Pkg && name != "" {
				ev.literals[name] = true
			}
		case *ast.CallExpr:
			fn := calleeObj(pass.TypesInfo, n)
			if fn == nil || fn.Pkg() != pass.Pkg {
				return
			}
			switch {
			case fn.Name() == "Marshal" || fn.Name() == "AppendMarshal":
				ev.callsMarshal = true
			case strings.HasPrefix(fn.Name(), "Unmarshal"):
				ev.callsUnmarshal = true
			default:
				if followCalls {
					if helper := findFuncDecl(pass, fn.Name()); helper != nil && helper.Body != nil {
						scanEvidenceBody(pass, helper.Body, ev, false)
					}
				}
			}
		case *ast.ForStmt, *ast.RangeStmt:
			if loopDecodesPrefixes(pass, n) {
				ev.truncSweep = true
			}
		}
	})
}

// loopDecodesPrefixes reports whether a loop body calls an Unmarshal*
// function on a sliced buffer — the truncation-sweep shape
// `for cut := ...; { Unmarshal(msg[:cut]) }`.
func loopDecodesPrefixes(pass *Pass, loop ast.Node) bool {
	found := false
	walk(loop, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeObj(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() != pass.Pkg || !strings.HasPrefix(fn.Name(), "Unmarshal") {
			return
		}
		for _, arg := range call.Args {
			if se, ok := ast.Unparen(arg).(*ast.SliceExpr); ok && se.High != nil {
				found = true
			}
		}
	})
	return found
}

// checkVersionGating demands that any non-test file defining a
// Marshal*/Unmarshal* function references ProtoVersion.
func checkVersionGating(pass *Pass) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		var firstCodecFunc *ast.FuncDecl
		referencesVersion := false
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				name := fd.Name.Name
				if strings.HasPrefix(name, "Marshal") || strings.HasPrefix(name, "AppendMarshal") ||
					strings.HasPrefix(name, "Unmarshal") || strings.HasPrefix(name, "unmarshal") {
					if firstCodecFunc == nil {
						firstCodecFunc = fd
					}
				}
			}
		}
		if firstCodecFunc == nil {
			continue
		}
		walk(f, func(n ast.Node) {
			if id, ok := n.(*ast.Ident); ok && id.Name == "ProtoVersion" {
				referencesVersion = true
			}
		})
		if !referencesVersion {
			pass.Reportf(firstCodecFunc.Pos(), "file defines codec function %s but never references ProtoVersion: layout changes must be version-gated", firstCodecFunc.Name.Name)
		}
	}
}

// endianReadWidth maps the raw read functions to the byte width they
// dereference.
var endianReadWidth = map[string]int{
	"Uint16": 2,
	"Uint32": 4,
	"Uint64": 8,
}

// checkRawLengthReads enforces rule 3: every raw endian read in non-test
// files must be statically in range or guarded.
func checkRawLengthReads(pass *Pass) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRawReadsInFunc(pass, fd)
		}
	}
}

func checkRawReadsInFunc(pass *Pass, fd *ast.FuncDecl) {
	type guard struct {
		pos   token.Pos
		conds []ast.Expr
	}
	var guards []guard
	// derivedFrom records, for each variable, the root of the expression
	// it was assigned from (trailer := b[len(b)-4:] derives trailer from
	// b), so a bounds guard on the source buffer also covers views of it.
	derivedFrom := make(map[types.Object]types.Object)
	walk(fd.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.IfStmt:
			guards = append(guards, guard{pos: n.Pos(), conds: []ast.Expr{n.Cond}})
		case *ast.ForStmt:
			if n.Cond != nil {
				guards = append(guards, guard{pos: n.Pos(), conds: []ast.Expr{n.Cond}})
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				dst := pass.TypesInfo.ObjectOf(id)
				src := rootIdentObj(pass, n.Rhs[i])
				if dst != nil && src != nil && dst != src {
					derivedFrom[dst] = src
				}
			}
		}
	})
	walk(fd.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		width, ok := endianReadWidth[sel.Sel.Name]
		if !ok || len(call.Args) == 0 {
			return
		}
		// Only binary.LittleEndian.* / binary.BigEndian.* selections.
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return
		}
		pkgID, ok := ast.Unparen(inner.X).(*ast.Ident)
		if !ok {
			return
		}
		if pkg, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName); !ok || pkg.Imported().Path() != "encoding/binary" {
			return
		}
		arg := ast.Unparen(call.Args[0])
		if fixedArrayAtLeast(pass, arg, width) {
			return
		}
		guarded := false
		root := rootIdentObj(pass, arg)
		for hops := 0; root != nil && hops < 4 && !guarded; hops++ {
			for _, g := range guards {
				if g.pos >= call.Pos() {
					continue
				}
				for _, cond := range g.conds {
					if containsIdentOf(pass.TypesInfo, cond, root) {
						guarded = true
					}
				}
			}
			root = derivedFrom[root]
		}
		// A read whose result is immediately range-checked (receive-limit
		// pattern: n := ...Uint32(hdr); if n > max { ... }) is also safe,
		// but that shape reads from fixed arrays in practice and is
		// already admitted above.
		if !guarded {
			pass.Reportf(call.Pos(), "raw %s length read is not preceded by a bounds guard on its buffer (SetRecvLimit/len check); a hostile length prefix must be refused before it is dereferenced", sel.Sel.Name)
		}
	})
}

// fixedArrayAtLeast reports whether expr is a full or prefix slice of a
// fixed-size array (hdr[:], buf[:8]) whose length covers width bytes, or
// the array itself.
func fixedArrayAtLeast(pass *Pass, expr ast.Expr, width int) bool {
	target := expr
	if se, ok := expr.(*ast.SliceExpr); ok {
		// A bounded slice hdr[:4] of a fixed array still panics only if
		// the array is too short, which the type checker would reject;
		// treat any slice of a fixed array as covered when the array
		// length suffices.
		target = se.X
	}
	tv, ok := pass.TypesInfo.Types[target]
	if !ok {
		return false
	}
	t := tv.Type.Underlying()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem().Underlying()
	}
	arr, ok := t.(*types.Array)
	return ok && arr.Len() >= int64(width)
}

// rootIdentObj returns the object of the base identifier under an
// expression like b, b[4:], buf[i*8:], *p.
func rootIdentObj(pass *Pass, expr ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(e)
		case *ast.SliceExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			return pass.TypesInfo.ObjectOf(e.Sel)
		case *ast.StarExpr:
			expr = e.X
		case *ast.CallExpr:
			// Result of a helper call (r.take(4)): guard detection keys on
			// the variable the result was assigned to, which the caller
			// resolves through the assignment; here there is no root.
			return nil
		default:
			return nil
		}
	}
}

func findFuncDecl(pass *Pass, name string) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
