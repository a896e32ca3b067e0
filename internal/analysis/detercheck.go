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
//
// It also keeps internal/fl off the wall clock's waits: the round
// machinery owns no timer — every wait (quorum, heal, rejoin backoff)
// belongs to a transport — so non-test fl code may not call time.Sleep,
// time.After, time.AfterFunc, time.NewTimer, time.NewTicker or time.Tick.
// time.Now and time.Since, which only measure, stay allowed.
var DeterCheck = &Analyzer{
	Name: "detercheck",
	Doc:  "no order-dependent map iteration in the deterministic federation core (fl, simnet), and no timer in fl",
	Run:  runDeterCheck,
}

// timers are the package time functions that wait or schedule.
var timers = map[string]bool{"Sleep": true, "After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true}

func runDeterCheck(pass *Pass) error {
	fl := PkgIs(pass.Pkg, "fl")
	if !fl && !PkgIs(pass.Pkg, "simnet") {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		walk(f, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.RangeStmt:
				tv, ok := pass.TypesInfo.Types[n.X]
				if !ok {
					return
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return
				}
				pass.Reportf(n.Pos(), "range over a map iterates in randomized order, which breaks the bitwise pin if it reaches a fold or an encoder: iterate sorted keys or justify with //lint:allow detercheck <reason>")
			case *ast.SelectorExpr:
				fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func)
				if !fl || !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !timers[fn.Name()] ||
					fn.Type().(*types.Signature).Recv() != nil {
					return
				}
				pass.Reportf(n.Pos(), "time.%s waits on the wall clock, and fl owns no timer: a wait belongs to the transport (time.Now and time.Since, which only measure, are fine)", fn.Name())
			}
		})
	}
	return nil
}
