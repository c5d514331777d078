package repl

import (
	"fmt"
	"sync"
	"time"

	"gdn/internal/core"
	"gdn/internal/obs"
	"gdn/internal/rpc"
)

// MasterSlaveProtocol returns the master/slave protocol: one master
// replica accepts all writes and synchronously pushes the resulting
// state to slave replicas placed near clients, which serve reads
// locally. The second of the two protocols the paper ships (§7) and
// the workhorse of the GDN: packages are written rarely (by
// moderators) and read often (by everyone), exactly the mix this
// protocol favours.
func MasterSlaveProtocol() *core.Protocol {
	return &core.Protocol{
		Name: MasterSlave,
		// Proxies read from a healthy slave (the location service
		// returned the nearest representatives, and the peer set spreads
		// load across them) and write to the master — directly when
		// known, else through a slave.
		NewProxy: proxyOf([]string{RoleSlave, RoleMaster}, []string{RoleMaster, RoleSlave}),
		NewReplica: func(env *core.Env) (core.Replication, error) {
			switch env.Role {
			case RoleMaster:
				return newMSMaster(env)
			case RoleSlave:
				return newMSSlave(env)
			default:
				return nil, fmt.Errorf("repl: %s: unknown role %q", MasterSlave, env.Role)
			}
		},
	}
}

// msMaster is the master replica: the single writer.
type msMaster struct {
	*replicaBase
	// writeMu serializes writes so state pushes leave in write order.
	writeMu sync.Mutex
}

func newMSMaster(env *core.Env) (core.Replication, error) {
	if env.Disp == nil {
		return nil, fmt.Errorf("repl: %s master needs a dispatcher", MasterSlave)
	}
	m := &msMaster{replicaBase: newReplicaBase(env)}
	env.Disp.Register(env.OID, m.handle)
	return m, nil
}

func (m *msMaster) Invoke(inv core.Invocation) ([]byte, time.Duration, error) {
	if inv.Write {
		return m.write(inv, nil)
	}
	out, err := m.env.Exec.Execute(inv)
	return out, 0, err
}

func (m *msMaster) Close() error {
	m.env.Disp.Unregister(m.env.OID)
	return nil
}

func (m *msMaster) handle(call *rpc.Call) ([]byte, error) {
	if handled, resp, err := m.handleCommon(call); handled {
		return resp, err
	}
	if call.Op != core.OpInvoke {
		return nil, fmt.Errorf("repl: %s master: unexpected op %d", MasterSlave, call.Op)
	}
	inv, err := core.DecodeInvocation(call.Body)
	if err != nil {
		return nil, err
	}
	if !inv.Write {
		return m.env.Exec.Execute(inv)
	}
	if err := authorizeWrite(m.env, call); err != nil {
		return nil, err
	}
	out, cost, err := m.write(inv, call)
	if call != nil {
		call.Charge(cost)
	}
	return out, err
}

// write executes a state-modifying invocation and synchronously pushes
// the new state to every slave before returning, so a client whose
// write has been acknowledged reads it at any slave.
func (m *msMaster) write(inv core.Invocation, call *rpc.Call) ([]byte, time.Duration, error) {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()

	out, err := m.env.Exec.Execute(inv)
	if err != nil {
		return nil, 0, err
	}
	version := m.bumpVersion()
	state, err := m.env.Exec.MarshalState()
	if err != nil {
		return nil, 0, fmt.Errorf("repl: %s master: marshal after write: %w", MasterSlave, err)
	}

	var total time.Duration
	slaveAddrs := m.slaveAddrs()
	if len(slaveAddrs) > 0 {
		cost, perr := m.pushAll(slaveAddrs, core.OpStatePush, encodeStatePush(version, state))
		total += cost
		if perr != nil {
			m.env.Logf("repl: %s master %s: push: %v", MasterSlave, m.env.OID.Short(), perr)
		}
	}
	if cacheSubs := m.subscribers(RoleCache); len(cacheSubs) > 0 {
		addrs := make([]string, len(cacheSubs))
		for i, s := range cacheSubs {
			addrs[i] = s.addr
		}
		cost, perr := m.pushAll(addrs, core.OpInvalidate, nil)
		total += cost
		if perr != nil {
			m.env.Logf("repl: %s master %s: invalidate: %v", MasterSlave, m.env.OID.Short(), perr)
		}
	}
	return out, total, nil
}

// slaveAddrs merges statically configured slaves (from the replication
// scenario) with dynamically subscribed ones.
func (m *msMaster) slaveAddrs() []string {
	seen := make(map[string]bool)
	var out []string
	for _, ca := range m.env.PeersWithRole(RoleSlave) {
		if !seen[ca.Address] {
			seen[ca.Address] = true
			out = append(out, ca.Address)
		}
	}
	for _, s := range m.subscribers(RoleSlave) {
		if !seen[s.addr] {
			seen[s.addr] = true
			out = append(out, s.addr)
		}
	}
	return out
}

// msSlave is a read replica: it initializes from the master, receives
// synchronous state pushes, serves reads locally and forwards writes.
type msSlave struct {
	*replicaBase
	masterAddr string
}

func newMSSlave(env *core.Env) (core.Replication, error) {
	if env.Disp == nil {
		return nil, fmt.Errorf("repl: %s slave needs a dispatcher", MasterSlave)
	}
	masters := env.PeersWithRole(RoleMaster)
	if len(masters) == 0 {
		return nil, fmt.Errorf("repl: %s slave for %s: no master in peer set", MasterSlave, env.OID.Short())
	}
	s := &msSlave{replicaBase: newReplicaBase(env), masterAddr: masters[0].Address}

	// State transfer, then subscription; a push racing between the two
	// only delivers a version we already have or newer.
	_, version, state, pins, _, err := s.fetchState(obs.SpanContext{}, s.env.Dial(s.masterAddr), 0)
	if err != nil {
		return nil, fmt.Errorf("repl: %s slave: initial state transfer: %w", MasterSlave, err)
	}
	err = env.Exec.UnmarshalState(state)
	s.releasePins(pins)
	if err != nil {
		return nil, fmt.Errorf("repl: %s slave: install state: %w", MasterSlave, err)
	}
	s.setVersion(version)
	if err := s.subscribeTo(s.masterAddr, env.Disp.Addr(), RoleSlave); err != nil {
		return nil, fmt.Errorf("repl: %s slave: subscribe: %w", MasterSlave, err)
	}
	env.Disp.Register(env.OID, s.handle)
	return s, nil
}

func (s *msSlave) Invoke(inv core.Invocation) ([]byte, time.Duration, error) {
	if inv.Write {
		// Writes go to the single writer; the master pushes the
		// resulting state back to us before acknowledging.
		return s.env.Dial(s.masterAddr).Call(obs.SpanContext{}, core.OpInvoke, inv.Encode())
	}
	out, err := s.env.Exec.Execute(inv)
	return out, 0, err
}

func (s *msSlave) Close() error {
	s.env.Disp.Unregister(s.env.OID)
	s.unsubscribeFrom(s.masterAddr, s.env.Disp.Addr())
	return nil
}

func (s *msSlave) handle(call *rpc.Call) ([]byte, error) {
	// Chunk negotiation targets the replica that executes manifest
	// writes — the master. A slave answering OpChunkHave from its own
	// store would promise chunks the master may lack, and accepting
	// OpChunkPut locally would feed a store no write reads from; both
	// are forwarded instead, so negotiated uploads work even for
	// writers that only know slave addresses (ROADMAP open item).
	if handled, resp, err := s.relayChunkOps(call, s.masterAddr); handled {
		return resp, err
	}
	if handled, resp, err := s.handleCommon(call); handled {
		return resp, err
	}
	switch call.Op {
	case core.OpInvoke:
		inv, err := core.DecodeInvocation(call.Body)
		if err != nil {
			return nil, err
		}
		if inv.Write {
			if err := authorizeWrite(s.env, call); err != nil {
				return nil, err
			}
			resp, cost, err := s.env.Dial(s.masterAddr).Call(call.TC, core.OpInvoke, call.Body)
			call.Charge(cost)
			return resp, err
		}
		return s.env.Exec.Execute(inv)
	case core.OpStatePush:
		if err := authorizeWrite(s.env, call); err != nil {
			return nil, err
		}
		version, state, err := decodeStatePush(call.Body)
		if err != nil {
			return nil, err
		}
		if version <= s.currentVersion() {
			return nil, nil // stale or duplicate push
		}
		// The push carries manifests; pull only the chunks we are
		// missing back from the master before installing — the delta
		// that makes an append to a huge package cost only the
		// appended chunks, not a full-state reship.
		pins, cost, err := s.fillChunks(call.TC, s.env.Dial(s.masterAddr), state)
		call.Charge(cost)
		if err != nil {
			return nil, err
		}
		err = s.env.Exec.UnmarshalState(state)
		s.releasePins(pins)
		if err != nil {
			return nil, err
		}
		s.setVersion(version)
		return nil, nil
	default:
		return nil, fmt.Errorf("repl: %s slave: unexpected op %d", MasterSlave, call.Op)
	}
}
