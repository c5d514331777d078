package analysis

import (
	"go/ast"
	"go/types"
)

// TraceCtx enforces the trace-propagation contract from
// internal/obs/doc.go: once a request carries a span context, every
// hop forwards it. Concretely, inside a traced function — one that
// takes an obs.SpanContext parameter —
//
//   - calling a function or method that has a T-variant sibling
//     (same name + "T", taking an obs.SpanContext) drops the trace:
//     the T-variant must be called instead, and
//   - passing a zero obs.SpanContext{} literal re-roots the trace
//     while a real context is in scope.
//
// Most traced APIs have no twin: the context is their first parameter
// (rpc.Client.Call, core.PeerClient.Call), so only the re-root rule
// applies to them. The one untraced convenience wrapper left,
// pkgobj.Stub.ReadFileTo delegating to ReadFileToT with a zero context,
// is a sanctioned entry point and is not flagged in itself: it has no
// SpanContext parameter to propagate.
var TraceCtx = &Analyzer{
	Name: "tracectx",
	Doc: "traced code paths (functions taking obs.SpanContext) must call T-variants " +
		"and must not re-root the trace with a zero obs.SpanContext{}",
	Run: runTraceCtx,
}

func runTraceCtx(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			sig, _ := fn.Type().(*types.Signature)
			if sig == nil || !hasSpanCtxParam(sig) {
				continue
			}
			checkTracedBody(pass, fd)
		}
	}
	return nil
}

// hasSpanCtxParam reports whether any parameter is an obs.SpanContext
// (by value or pointer).
func hasSpanCtxParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if typeIs(sig.Params().At(i).Type(), "gdn/internal/obs", "SpanContext") {
			return true
		}
	}
	return false
}

// checkTracedBody walks one traced function body. Nested function
// literals are part of the traced path: a closure spawned by a traced
// handler still has the span context in scope.
func checkTracedBody(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if isZeroSpanCtx(pass.Info, arg) {
				pass.Reportf(arg.Pos(),
					"zero obs.SpanContext{} re-roots the trace inside traced function %s: pass the in-scope span context",
					fd.Name.Name)
			}
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		if sig, _ := fn.Type().(*types.Signature); sig != nil && hasSpanCtxParam(sig) {
			return true // already the traced form
		}
		if tv := tVariantOf(fn); tv != nil {
			pass.Reportf(call.Pos(),
				"call to %s drops the trace inside traced function %s: call %s and forward the span context",
				fn.Name(), fd.Name.Name, tv.Name())
		}
		return true
	})
}

// isZeroSpanCtx matches an empty obs.SpanContext{} composite literal.
func isZeroSpanCtx(info *types.Info, e ast.Expr) bool {
	cl, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok || len(cl.Elts) != 0 {
		return false
	}
	tv, ok := info.Types[cl]
	return ok && typeIs(tv.Type, "gdn/internal/obs", "SpanContext")
}

// tVariantOf finds fn's traced sibling: a function or method named
// fn.Name()+"T" in the same scope (package scope for functions, the
// receiver's explicit method set for methods) that takes an
// obs.SpanContext. Returns nil when fn has no such sibling.
func tVariantOf(fn *types.Func) *types.Func {
	want := fn.Name() + "T"
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	if sig.Recv() == nil {
		if fn.Pkg() == nil {
			return nil
		}
		sib, _ := fn.Pkg().Scope().Lookup(want).(*types.Func)
		if sib != nil {
			if ssig, _ := sib.Type().(*types.Signature); ssig != nil && hasSpanCtxParam(ssig) {
				return sib
			}
		}
		return nil
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if m.Name() != want {
			continue
		}
		if msig, _ := m.Type().(*types.Signature); msig != nil && hasSpanCtxParam(msig) {
			return m
		}
	}
	return nil
}
