package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockRPC enforces the lock discipline the striped hot structures
// (the store's 16-way chunk shards, the rpc pending table's 8-way
// shards) depend on: a shard mutex is held for map surgery only.
// Blocking while holding one — an rpc.Client/core.PeerClient call, a
// StreamWriter send, a transport write, or a channel send — stalls
// every request hashing to that shard, and closes the loop for the
// classic reply-delivery deadlock (demux needs the shard the blocked
// sender holds).
//
// A shard mutex is any sync.Mutex/RWMutex locked through a value
// whose named type contains "shard" (store.shard, rpc.pendShard, ...).
// Ordinary connection-level mutexes (e.g. a sequencer serializing
// Send) are legitimately held across writes and are not flagged.
// Channel sends inside a select with a default case are non-blocking
// and exempt.
var LockRPC = &Analyzer{
	Name: "lockrpc",
	Doc: "no rpc/transport call or blocking channel send while holding a store or " +
		"pending-table shard mutex",
	Run: runLockRPC,
}

func runLockRPC(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					(&lockWalker{pass: pass}).walkStmts(fn.Body.List)
				}
			case *ast.FuncLit:
				(&lockWalker{pass: pass}).walkStmts(fn.Body.List)
			}
			return true
		})
	}
	return nil
}

// lockWalker tracks the stack of shard locks held at each statement.
// held entries are human-readable descriptions of the lock
// expressions, e.g. "store.shard mutex".
type lockWalker struct {
	pass *Pass
	held []string
}

func (w *lockWalker) walkStmts(stmts []ast.Stmt) {
	depth := len(w.held)
	for _, s := range stmts {
		w.walkStmt(s)
	}
	// Locks taken in this block (and not released in it) do not leak
	// into the caller's view: a helper that returns holding a lock is
	// beyond this analysis.
	if len(w.held) > depth {
		w.held = w.held[:depth]
	}
}

func (w *lockWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// defer shard.mu.Unlock() keeps the lock to the end of the
		// function: everything after is "while held". An Unlock is
		// never treated as releasing when deferred.
		if w.shardLockName(s.Call, "Lock", "RLock") != "" {
			// Deferred Lock would be bizarre; ignore.
			return
		}
		w.dangerExpr(s.Call)
	case *ast.GoStmt:
		w.dangerExpr(s.Call) // spawning is fine; evaluate args only
	case *ast.SendStmt:
		if len(w.held) > 0 {
			w.pass.Reportf(s.Arrow, "channel send may block while holding %s", w.held[len(w.held)-1])
		}
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.expr(s.Cond)
		w.walkStmts(s.Body.List)
		if s.Else != nil {
			w.walkStmt(s.Else)
		}
	case *ast.BlockStmt:
		w.walkStmts(s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.walkStmts(s.Body.List)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.walkStmts(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		w.selectStmt(s)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	}
}

// selectStmt: a select with a default case never blocks, so its sends
// are exempt; without one, each communication can block exactly like a
// bare send.
func (w *lockWalker) selectStmt(s *ast.SelectStmt) {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm != nil {
			if send, ok := cc.Comm.(*ast.SendStmt); ok {
				if !hasDefault && len(w.held) > 0 {
					w.pass.Reportf(send.Arrow, "channel send may block while holding %s", w.held[len(w.held)-1])
				}
				w.expr(send.Chan)
				w.expr(send.Value)
			} else {
				if hasDefault {
					// Non-blocking receive: walk without the send check.
					w.walkStmt(cc.Comm)
				} else {
					if len(w.held) > 0 {
						w.pass.Reportf(cc.Comm.Pos(), "select may block while holding %s", w.held[len(w.held)-1])
					}
					w.walkStmt(cc.Comm)
				}
			}
		}
		w.walkStmts(cc.Body)
	}
}

// expr handles lock transitions and danger calls in an expression.
func (w *lockWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		// Non-call expressions can still contain calls (binary ops,
		// composite literals, ...).
		ast.Inspect(e, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				w.expr(c)
				return false
			}
			if _, ok := n.(*ast.FuncLit); ok {
				return false // separate scope, walked by runLockRPC
			}
			return true
		})
		return
	}
	if name := w.shardLockName(call, "Lock", "RLock"); name != "" {
		w.held = append(w.held, name)
		return
	}
	if name := w.shardLockName(call, "Unlock", "RUnlock"); name != "" {
		for i := len(w.held) - 1; i >= 0; i-- {
			if w.held[i] == name {
				w.held = append(w.held[:i], w.held[i+1:]...)
				break
			}
		}
		return
	}
	w.dangerExpr(call)
}

// dangerExpr reports the call if it can block on the network or a
// peer while a shard lock is held, then recurses into its arguments.
func (w *lockWalker) dangerExpr(call *ast.CallExpr) {
	if len(w.held) > 0 {
		if what := dangerCall(w.pass.Info, call); what != "" {
			w.pass.Reportf(call.Pos(), "%s while holding %s", what, w.held[len(w.held)-1])
		}
	}
	for _, a := range call.Args {
		w.expr(a)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X)
	}
}

// dangerCall classifies calls that block on a peer: rpc client calls,
// stream-writer sends, raw transport writes.
func dangerCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil {
		return ""
	}
	recvPkg, recvType, ok := recvTypeName(fn)
	if !ok {
		return ""
	}
	for _, t := range [...]struct{ pkg, typ, label string }{
		{"gdn/internal/rpc", "Client", "rpc.Client." + fn.Name()},
		{"gdn/internal/rpc", "StreamWriter", "rpc.StreamWriter." + fn.Name()},
		{"gdn/internal/core", "PeerClient", "core.PeerClient." + fn.Name()},
		{"gdn/internal/transport", "Conn", "transport.Conn." + fn.Name()},
	} {
		if recvPkg == t.pkg && recvType == t.typ {
			return t.label
		}
	}
	return ""
}

// shardLockName matches a call of one of methods on a sync.Mutex or
// sync.RWMutex reached through a value whose named type contains
// "shard", returning a description of the lock, or "".
func (w *lockWalker) shardLockName(call *ast.CallExpr, methods ...string) string {
	fn := calleeFunc(w.pass.Info, call)
	if fn == nil {
		return ""
	}
	match := false
	for _, m := range methods {
		if methodIs(fn, "sync", "Mutex", m) || methodIs(fn, "sync", "RWMutex", m) {
			match = true
			break
		}
	}
	if !match {
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return w.shardTypeIn(sel.X)
}

// shardTypeIn scans the receiver chain of a mutex selector for a
// shard-named type: s.shards[i].mu, sh.mu, pendShards[h].mu, ...
func (w *lockWalker) shardTypeIn(e ast.Expr) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		x, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		tv, ok := w.pass.Info.Types[x]
		if !ok {
			return true
		}
		named := namedOf(tv.Type)
		if named == nil {
			return true
		}
		name := named.Obj().Name()
		if strings.Contains(strings.ToLower(name), "shard") {
			q := name
			if named.Obj().Pkg() != nil {
				q = named.Obj().Pkg().Name() + "." + name
			}
			found = q + " mutex"
		}
		return true
	})
	return found
}
