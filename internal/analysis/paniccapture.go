package analysis

import (
	"go/ast"
)

// PanicCapture enforces the pipeline's poison-batch contract in packages
// marked `saga:paniccapture`: a panic inside a worker goroutine must be
// captured and re-raised on the spawning side (as graph.ParallelRanges,
// the one fork-join of the batch path, does), because a panic that
// escapes on a raw goroutine kills the process before the quarantine
// logic can isolate the batch.
// Every `go` statement must therefore launch a function literal whose
// first line of defense is a `defer func() { ... recover() ... }()`;
// spawning a named function or an uncaptured literal is reported.
var PanicCapture = &Analyzer{
	Name: "paniccapture",
	Doc: "in saga:paniccapture packages, require every go statement to " +
		"launch a closure with a top-level defer'd recover",
	Run: runPanicCapture,
}

func runPanicCapture(pass *Pass) {
	if !pass.Markers["paniccapture"] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
			if !ok {
				pass.Reportf(g.Pos(),
					"goroutine launches a named function, which cannot be seen to capture panics; wrap it in a closure with a defer'd recover (or run the work through graph.ParallelRanges)")
				return true
			}
			if !hasDeferredRecover(lit.Body) {
				pass.Reportf(g.Pos(),
					"goroutine does not capture panics: add a top-level `defer func() { if r := recover(); ... }()` so the poison-batch quarantine can recover it (or run the work through graph.ParallelRanges)")
			}
			return true
		})
	}
}

// hasDeferredRecover reports whether the function body has a top-level
// deferred closure that calls recover().
func hasDeferredRecover(body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		d, ok := stmt.(*ast.DeferStmt)
		if !ok {
			continue
		}
		lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
