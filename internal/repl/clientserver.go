package repl

import (
	"fmt"
	"time"

	"gdn/internal/core"
	"gdn/internal/rpc"
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
		NewProxy:   proxyOf(forwardPrefs, forwardPrefs),
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

// forwardPrefs is the capability order clientserver and cache proxies
// rank candidates by, for reads and writes alike: the most capable
// representative the location service returned serves every
// invocation.
var forwardPrefs = []string{RoleServer, RoleMaster, RoleSlave, RoleCache, RoleSequencer, RolePeer}
