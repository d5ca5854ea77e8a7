package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// RetryClass closes the loop on the durable layer's fault taxonomy: in a
// `saga:durable` package, a function annotated `saga:classified` feeds
// the retry/degrade machinery, so every error it returns must have gone
// through the transient/permanent classifier — a naked `return err` from
// a new I/O call would silently bypass the degrade policy and be retried
// (or fatal) for the wrong reasons. The analyzer is a forward taint
// analysis on the shared dataflow engine: error results of calls into
// foreign packages (the standard library, anything outside this module)
// are unclassified; `errors`/`fmt` wrapping propagates taint;
// `saga:classifier` calls (Permanent, IsPermanent) launder the local
// they inspect; and results of `saga:classifies` entry points
// (Manager.retry) or of other same-module functions are trusted.
// Returning a tainted error from a saga:classified function is the
// finding.
var RetryClass = &Analyzer{
	Name: "retryclass",
	Doc: "check that saga:classified functions in saga:durable packages " +
		"never return errors that bypassed the transient/permanent classifier",
	Run: runRetryClass,
}

func runRetryClass(pass *Pass) {
	if !pass.Markers["durable"] {
		return
	}
	rc := &retryChecker{pass: pass, modSeg: firstSegment(pass.Pkg.Path())}
	forEachFunc(pass.Files, func(decl *ast.FuncDecl) {
		obj := declObj(pass, decl)
		if _, ok := pass.funcAnnotation(obj, "classified"); !ok {
			return
		}
		rc.analyzeFunc(decl)
	})
}

type retryChecker struct {
	pass   *Pass
	modSeg string // first import-path segment of the analyzed module
}

// errFact is the set of locals holding unclassified errors.
type errFact map[types.Object]bool

func firstSegment(path string) string {
	seg, _, _ := strings.Cut(path, "/")
	return seg
}

// foreignCall reports whether call crosses the module boundary — its
// error results have not been through this repo's classifier.
func (rc *retryChecker) foreignCall(call *ast.CallExpr) bool {
	fn := calleeFunc(rc.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if firstSegment(path) == rc.modSeg {
		return false
	}
	// errors/fmt construct and wrap; they are propagators, not sources
	// (handled separately in the transfer function).
	if path == "errors" || path == "fmt" {
		return false
	}
	return true
}

func (rc *retryChecker) wrapperCall(call *ast.CallExpr) bool {
	fn := calleeFunc(rc.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == "errors" || p == "fmt"
}

func (rc *retryChecker) classifierCall(call *ast.CallExpr) bool {
	fn := calleeFunc(rc.pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	_, ok := rc.pass.funcAnnotation(fn, "classifier")
	return ok
}

// taintedExpr reports whether e produces an unclassified error under f:
// a tainted local, a direct foreign call's error result, or a wrapper
// (fmt.Errorf %w) around either.
func (rc *retryChecker) taintedExpr(f errFact, e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := rc.pass.TypesInfo.Uses[x]
		return obj != nil && f[obj]
	case *ast.CallExpr:
		if rc.classifierCall(x) {
			return false
		}
		// saga:classifies entry points (Manager.retry) return classified
		// errors by contract, wherever they live.
		if fn := calleeFunc(rc.pass.TypesInfo, x); fn != nil {
			if _, ok := rc.pass.funcAnnotation(fn, "classifies"); ok {
				return false
			}
		}
		if rc.foreignCall(x) {
			return returnsError(rc.pass, x)
		}
		if rc.wrapperCall(x) {
			for _, a := range x.Args {
				if rc.taintedExpr(f, a) {
					return true
				}
			}
		}
		return false
	}
	return false
}

func (rc *retryChecker) analyzeFunc(decl *ast.FuncDecl) {
	info := rc.pass.TypesInfo

	// Locate the error result positions (and names, for naked returns).
	sig, ok := info.Defs[decl.Name].Type().(*types.Signature)
	if !ok {
		return
	}
	var errIdx []int
	var namedErrs []types.Object
	for i := 0; i < sig.Results().Len(); i++ {
		r := sig.Results().At(i)
		if types.Identical(r.Type(), errorType) {
			errIdx = append(errIdx, i)
			if r.Name() != "" {
				namedErrs = append(namedErrs, r)
			}
		}
	}
	if len(errIdx) == 0 {
		return
	}

	body := decl.Body
	cfg := rc.pass.pkg.cfgOf(body)
	spec := rc.spec(body)
	in := forward(cfg, spec)
	forEachNodeFact(cfg, spec, in, func(f errFact, n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		if len(ret.Results) == 0 {
			// Naked return: named error results carry whatever they hold.
			for _, obj := range namedErrs {
				if f[obj] {
					rc.report(ret.Pos(), decl.Name.Name)
				}
			}
			return
		}
		if len(ret.Results) == 1 && len(errIdx) > 0 && sig.Results().Len() > 1 {
			// `return foreignCall()` forwarding a tuple.
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				if rc.foreignCall(call) && returnsError(rc.pass, call) {
					rc.report(ret.Pos(), decl.Name.Name)
				}
			}
			return
		}
		for _, i := range errIdx {
			if i < len(ret.Results) && rc.taintedExpr(f, ret.Results[i]) {
				rc.report(ret.Results[i].Pos(), decl.Name.Name)
			}
		}
	})
}

func (rc *retryChecker) report(pos token.Pos, fname string) {
	rc.pass.Reportf(pos,
		"saga:classified function %s returns an error that never went through "+
			"the transient/permanent classifier", fname)
}

func (rc *retryChecker) spec(body *ast.BlockStmt) flowSpec[errFact] {
	info := rc.pass.TypesInfo
	return flowSpec[errFact]{
		init: func() errFact { return errFact{} },
		clone: func(f errFact) errFact {
			c := make(errFact, len(f))
			for k := range f {
				c[k] = true
			}
			return c
		},
		merge: func(acc, in errFact) bool {
			changed := false
			for k := range in {
				if !acc[k] {
					acc[k] = true
					changed = true
				}
			}
			return changed
		},
		transfer: func(f errFact, n ast.Node) {
			// Classifier calls launder the locals they inspect, wherever
			// they appear in the node (conditions included).
			scan := n
			if r, ok := n.(*ast.RangeStmt); ok {
				scan = r.X
			}
			ast.Inspect(scan, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false
				}
				call, ok := m.(*ast.CallExpr)
				if !ok || !rc.classifierCall(call) {
					return true
				}
				for _, a := range call.Args {
					if id, ok := ast.Unparen(a).(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil {
							delete(f, obj)
						}
					}
				}
				return true
			})

			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return
			}
			// Tuple form: v, err := foreignCall().
			if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
				call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return
				}
				tainted := rc.foreignCall(call)
				for _, lhs := range as.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := identObj(info, id)
					if obj == nil || !isErrorObj(obj) {
						continue
					}
					if tainted {
						f[obj] = true
					} else {
						delete(f, obj)
					}
				}
				return
			}
			if len(as.Lhs) != len(as.Rhs) {
				return
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := identObj(info, id)
				if obj == nil || !isErrorObj(obj) {
					continue
				}
				if rc.taintedExpr(f, as.Rhs[i]) {
					f[obj] = true
				} else {
					delete(f, obj)
				}
			}
		},
	}
}
