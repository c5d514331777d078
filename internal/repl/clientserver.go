package repl

import (
	"fmt"
	"time"

	"gdn/internal/core"
	"gdn/internal/obs"
	"gdn/internal/rpc"
	"gdn/internal/store"
)

// ClientServerProtocol returns the client/(single) server protocol: one
// replica holds the object's state and every invocation — read or
// write — executes there. It is the simplest of the two protocols the
// paper ships (§7) and the baseline every replicated scenario is
// measured against: cheap in server resources, expensive in wide-area
// traffic once clients are far away.
func ClientServerProtocol() *core.Protocol {
	return &core.Protocol{
		Name:       ClientServer,
		NewProxy:   newForwardingProxy,
		NewReplica: newCSServer,
	}
}

// csServer is the replica side: it executes everything locally, tracks
// a state version, and invalidates subscribed caches on writes.
type csServer struct {
	*replicaBase
}

func newCSServer(env *core.Env) (core.Replication, error) {
	if env.Disp == nil {
		return nil, fmt.Errorf("repl: %s server replica needs a dispatcher", ClientServer)
	}
	s := &csServer{replicaBase: newReplicaBase(env)}
	env.Disp.Register(env.OID, s.handle)
	return s, nil
}

// Invoke serves the hosting process's own use of the replica (an
// object server or HTTPD reading a co-resident object).
func (s *csServer) Invoke(inv core.Invocation) ([]byte, time.Duration, error) {
	out, err := s.env.Exec.Execute(inv)
	var cost time.Duration
	if err == nil && inv.Write {
		s.bumpVersion()
		cost, err = s.invalidateCaches()
	}
	return out, cost, err
}

func (s *csServer) Close() error {
	s.env.Disp.Unregister(s.env.OID)
	return nil
}

func (s *csServer) handle(call *rpc.Call) ([]byte, error) {
	if handled, resp, err := s.handleCommon(call); handled {
		return resp, err
	}
	if call.Op != core.OpInvoke {
		return nil, fmt.Errorf("repl: %s server: unexpected op %d", ClientServer, call.Op)
	}
	inv, err := core.DecodeInvocation(call.Body)
	if err != nil {
		return nil, err
	}
	if inv.Write {
		if err := authorizeWrite(s.env, call); err != nil {
			return nil, err
		}
	}
	out, err := s.env.Exec.Execute(inv)
	if err == nil && inv.Write {
		s.bumpVersion()
		cost, ierr := s.invalidateCaches()
		call.Charge(cost)
		if ierr != nil {
			s.env.Logf("repl: %s: cache invalidation: %v", ClientServer, ierr)
		}
	}
	return out, err
}

// invalidateCaches notifies invalidation-mode caches that their copy is
// stale. Failures are logged, not fatal: a dead cache only rejoins
// colder.
func (s *csServer) invalidateCaches() (time.Duration, error) {
	subs := s.subscribers(RoleCache)
	if len(subs) == 0 {
		return 0, nil
	}
	addrs := make([]string, len(subs))
	for i, sub := range subs {
		addrs[i] = sub.addr
	}
	return s.pushAll(addrs, core.OpInvalidate, nil)
}

// forwardingProxyPrefs is the capability order forwardingProxy ranks
// candidates by: the most capable representative the location service
// returned serves every invocation.
var forwardingProxyPrefs = []string{RoleServer, RoleMaster, RoleSlave, RoleCache, RoleSequencer, RolePeer}

// forwardingProxy is the proxy side shared by clientserver and cache:
// every invocation is forwarded to a remote representative chosen from
// a ranked peer set — failing over to the next candidate (and
// re-resolving through the location service) when the bound one dies,
// instead of staying pinned to a bind-time corpse.
type forwardingProxy struct {
	env   *core.Env
	peers *core.PeerSet
}

func newForwardingProxy(env *core.Env) (core.Replication, error) {
	ps, err := core.NewPeerSet(env, "", forwardingProxyPrefs, forwardingProxyPrefs)
	if err != nil {
		return nil, fmt.Errorf("repl: %w", err)
	}
	return &forwardingProxy{env: env, peers: ps}, nil
}

func (p *forwardingProxy) Invoke(inv core.Invocation) ([]byte, time.Duration, error) {
	return p.peers.Call(core.OpInvoke, inv.Encode(), inv.Write)
}

// ReadBulk implements core.BulkReader by streaming from a forwarded
// representative, resuming at the current offset on another replica
// when one dies mid-stream.
func (p *forwardingProxy) ReadBulk(tc obs.SpanContext, path string, off, n int64, fn func([]byte) error) (core.Manifest, time.Duration, error) {
	return streamBulkVia(tc, p.peers, path, off, n, fn)
}

// MissingChunks and PushChunks implement core.ChunkNegotiator: every
// candidate either executes manifest writes itself (the clientserver
// server) or forwards chunk traffic to the replica that does, so a
// chunk a candidate confirms holding is a chunk the manifest write
// will find.
func (p *forwardingProxy) MissingChunks(refs []store.Ref) ([]store.Ref, time.Duration, error) {
	return missingChunksVia(p.peers, refs)
}

// PushChunks implements core.ChunkNegotiator.
func (p *forwardingProxy) PushChunks(chunks [][]byte) (time.Duration, error) {
	return pushChunksVia(p.peers, chunks)
}

func (p *forwardingProxy) Close() error { return nil }

// Peers exposes the ranked peer set; tests and experiments read its
// failover counters.
func (p *forwardingProxy) Peers() *core.PeerSet { return p.peers }

// pickPeer returns the address of the first peer matching the earliest
// role in prefs; an empty role preference matches anything.
func pickPeer(env *core.Env, prefs ...string) string {
	for _, role := range prefs {
		for _, ca := range env.Peers {
			if ca.Role == role {
				return ca.Address
			}
		}
	}
	if len(env.Peers) > 0 {
		return env.Peers[0].Address
	}
	return ""
}
