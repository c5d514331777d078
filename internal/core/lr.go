package core

import (
	"time"

	"gdn/internal/ids"
	"gdn/internal/obs"
	"gdn/internal/store"
)

// LR is a local representative: the composition of subobjects that
// represents one distributed shared object in one address space
// (Figure 1). Depending on its role an LR is a client proxy (not
// contactable), a replica (registered with the location service), or a
// cache.
type LR struct {
	oid  ids.OID
	sem  Semantics
	ctrl *Control
	repl Replication
	role string
}

// newLR composes a representative from its subobjects.
func newLR(oid ids.OID, sem Semantics, repl Replication, role string) *LR {
	return &LR{oid: oid, sem: sem, ctrl: NewControl(repl), repl: repl, role: role}
}

// OID returns the object's identifier.
func (lr *LR) OID() ids.OID { return lr.oid }

// Role returns this representative's protocol role ("" for proxies).
func (lr *LR) Role() string { return lr.role }

// Control exposes the control subobject; typed stubs invoke through it.
func (lr *LR) Control() *Control { return lr.ctrl }

// Invoke routes one marshalled method call through the representative's
// subobject stack: control → replication → (possibly) communication.
func (lr *LR) Invoke(method string, write bool, args []byte) ([]byte, time.Duration, error) {
	return lr.ctrl.Invoke(method, write, args)
}

// Semantics exposes the semantics subobject for hosting infrastructure
// (object servers marshal its state for checkpoints). Application code
// must invoke through Control so the replication protocol stays in
// charge of consistency.
func (lr *LR) Semantics() Semantics { return lr.sem }

// Replication exposes the replication subobject; experiments reach
// protocol-specific statistics (e.g. cache hit rates) through it.
func (lr *LR) Replication() Replication { return lr.repl }

// Close tears the representative down: the replication subobject
// detaches from its peers and unregisters its endpoint, and a
// chunk-stored semantics drops its pins so a shared store can
// reclaim (or start aging out) this replica's content.
func (lr *LR) Close() error {
	err := lr.ctrl.Close()
	if rs, ok := lr.sem.(interface{ ReleaseStored() }); ok {
		rs.ReleaseStored()
	}
	return err
}

// NewLocalLR composes a representative whose replication subobject
// executes invocations directly against the given semantics — a single
// local copy with no network presence. Moderator tools stage new
// objects with it before shipping their state to object servers. Bulk
// reads stream from the semantics' own chunk store.
func NewLocalLR(oid ids.OID, sem Semantics) *LR {
	return newLR(oid, sem, localOnly{exec: NewLocalExec(sem), st: semStore(sem, nil)}, "")
}

type localOnly struct {
	exec *LocalExec
	st   *store.Store
}

func (l localOnly) Invoke(inv Invocation) ([]byte, time.Duration, error) {
	out, err := l.exec.Execute(inv)
	return out, 0, err
}

func (l localOnly) ReadBulk(tc obs.SpanContext, path string, off, n int64, fn func([]byte) error) (Manifest, time.Duration, error) {
	m, err := l.exec.ReadBulk(tc, l.st, path, off, n, fn)
	return m, 0, err
}

func (l localOnly) Close() error { return nil }
