package analysis

import (
	"go/ast"
	"go/types"
)

// DeterCheck mechanizes the bitwise-determinism discipline of the
// federation core: map iteration order is randomized per run, so a
// `range` over a map anywhere in internal/fl or internal/simnet
// non-test code is a latent break of the bitwise pin the moment its
// fold order (or encode order) reaches the Server's fold, FinishRound or
// snapshot encoding. The core keeps its hot state in party-ID-indexed
// slices for exactly this reason.
//
// Every map range in those packages must therefore either be rewritten
// over sorted keys / an index slice, or carry an explicit
//
//	//lint:allow detercheck <why order cannot matter here>
//
// so the order-independence argument is reviewed once and recorded next
// to the loop, instead of re-derived in every PR that touches it.
var DeterCheck = &Analyzer{
	Name: "detercheck",
	Doc:  "no order-dependent map iteration in the deterministic federation core (fl, simnet)",
	Run:  runDeterCheck,
}

func runDeterCheck(pass *Pass) error {
	if !PkgIs(pass.Pkg, "fl") && !PkgIs(pass.Pkg, "simnet") {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		walk(f, func(n ast.Node) {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return
			}
			pass.Reportf(rs.Pos(), "range over a map iterates in randomized order, which breaks the bitwise pin if it reaches a fold or an encoder: iterate sorted keys or justify with //lint:allow detercheck <reason>")
		})
	}
	return nil
}
