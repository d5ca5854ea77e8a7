package analysis

import (
	"go/ast"
	"go/types"
)

// ChunkOwner checks chunk-ownership discipline in packages marked
// `saga:lockless` (AC, DAH, hybrid): these structures take no locks
// during chunk-parallel ingestion because each chunk of vertex state is
// owned by exactly one worker. Inside a closure passed to ds.GroupByChunk,
// the analyzer tracks which expressions are derived from the worker's own
// chunk (the closure's parameters, locals, and anything indexed by them)
// and reports:
//
//   - writes to captured state that is not chunk-derived (a write the
//     worker does not own is a data race with its sibling workers);
//   - method calls on captured receivers unless the method is annotated
//     `saga:chunksafe` (it mutates only state owned by its arguments);
//   - indexing a field annotated `saga:chunked` with an expression not
//     derived from the worker's chunk (reading a sibling's slot races
//     with that sibling's writes).
var ChunkOwner = &Analyzer{
	Name: "chunkowner",
	Doc: "in saga:lockless packages, check that chunk-parallel workers " +
		"only touch state derived from their own chunk",
	Run: runChunkOwner,
}

const dsPkgPath = "sagabench/internal/ds"

func runChunkOwner(pass *Pass) {
	if !pass.Markers["lockless"] {
		return
	}
	chunked := collectChunkedFields(pass)
	chunksafe := collectChunksafe(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isPkgFunc(pass.TypesInfo, call, dsPkgPath, "GroupByChunk") {
				return true
			}
			lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
			if !ok {
				return true
			}
			co := &chunkOwnerCheck{pass: pass, lit: lit, chunked: chunked, chunksafe: chunksafe}
			co.check()
			return false
		})
	}
}

// collectChunkedFields gathers fields annotated saga:chunked (slices
// indexed by chunk id, one slot per worker).
func collectChunkedFields(pass *Pass) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stype, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range stype.Fields.List {
				if key, _ := fieldAnnotation(field); key != "chunked" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						out[v] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// collectChunksafe gathers methods annotated saga:chunksafe: callable
// from a chunk worker because they mutate only chunk-owned arguments.
func collectChunksafe(pass *Pass) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	forEachFunc(pass.Files, func(decl *ast.FuncDecl) {
		if _, ok := funcAnnotations(decl.Doc)["chunksafe"]; !ok {
			return
		}
		if f, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func); ok {
			out[f] = true
		}
	})
	return out
}

type chunkOwnerCheck struct {
	pass      *Pass
	lit       *ast.FuncLit
	chunked   map[*types.Var]bool
	chunksafe map[*types.Func]bool
}

func (co *chunkOwnerCheck) check() {
	ast.Inspect(co.lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				co.checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			co.checkWrite(x.X)
		case *ast.CallExpr:
			co.checkCall(x)
		case *ast.IndexExpr:
			co.checkChunkedIndex(x)
		}
		return true
	})
}

// ownedObj reports whether the object is declared inside the worker
// closure (parameter, local, range variable): worker-local state.
func (co *chunkOwnerCheck) ownedObj(obj types.Object) bool {
	return declaredIn(obj, co.lit)
}

// ownedIndex reports whether an index expression is derived from the
// worker's chunk: some identifier in it resolves to a closure-local.
func (co *chunkOwnerCheck) ownedIndex(e ast.Expr) bool {
	owned := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if co.ownedObj(co.pass.TypesInfo.Uses[id]) {
				owned = true
			}
		}
		return !owned
	})
	return owned
}

// ownedLoc reports whether a storage location belongs to this worker:
// rooted in a closure-local, or an element of captured state selected by
// a chunk-derived index.
func (co *chunkOwnerCheck) ownedLoc(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return true
		}
		if obj := co.pass.TypesInfo.Defs[x]; obj != nil {
			return co.ownedObj(obj) // `:=` defines a closure-local
		}
		return co.ownedObj(co.pass.TypesInfo.Uses[x])
	case *ast.SelectorExpr:
		return co.ownedLoc(x.X)
	case *ast.IndexExpr:
		return co.ownedLoc(x.X) || co.ownedIndex(x.Index)
	case *ast.StarExpr:
		return co.ownedLoc(x.X)
	}
	return false
}

func (co *chunkOwnerCheck) checkWrite(lhs ast.Expr) {
	if co.ownedLoc(lhs) {
		return
	}
	co.pass.Reportf(lhs.Pos(),
		"chunk worker writes %s, which is not derived from its own chunk (saga:lockless); route the write through a chunk-indexed slot or take a lock",
		exprText(co.pass.Fset, lhs))
}

func (co *chunkOwnerCheck) checkCall(call *ast.CallExpr) {
	fn := calleeFunc(co.pass.TypesInfo, call)
	if fn == nil || fn.Type().(*types.Signature).Recv() == nil || co.chunksafe[fn] {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || co.ownedLoc(sel.X) {
		return
	}
	co.pass.Reportf(call.Pos(),
		"chunk worker calls %s.%s on a captured receiver; annotate the method saga:chunksafe after auditing that it mutates only chunk-owned state",
		exprText(co.pass.Fset, sel.X), fn.Name())
}

func (co *chunkOwnerCheck) checkChunkedIndex(idx *ast.IndexExpr) {
	sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fv := fieldOf(co.pass.TypesInfo, sel)
	if fv == nil || !co.chunked[fv] || co.ownedLoc(sel.X) {
		return
	}
	if co.ownedIndex(idx.Index) {
		return
	}
	co.pass.Reportf(idx.Pos(),
		"chunk worker indexes saga:chunked field %s with %s, which is not derived from its own chunk",
		fv.Name(), exprText(co.pass.Fset, idx.Index))
}
