package repl

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"gdn/internal/core"
	"gdn/internal/obs"
	"gdn/internal/rpc"
	"gdn/internal/store"
	"gdn/internal/wire"
)

// ActiveProtocol returns active replication: every peer replica holds
// the full state and executes every write, with a sequencer replica
// imposing a global order — the "actively replicate all the state at
// all the local representatives" strategy of §3.3. Reads are local at
// every peer; writes cost a fan-out to all of them. Compared with
// master/slave, the active protocol trades write bandwidth (it ships
// the invocation, not the whole state) against per-replica execution.
func ActiveProtocol() *core.Protocol {
	return &core.Protocol{
		Name:     Active,
		NewProxy: newActiveProxy,
		NewReplica: func(env *core.Env) (core.Replication, error) {
			switch env.Role {
			case RoleSequencer:
				return newSequencer(env)
			case RolePeer:
				return newActivePeer(env)
			default:
				return nil, fmt.Errorf("repl: %s: unknown role %q", Active, env.Role)
			}
		},
	}
}

// opPeerRoster asks an active replica for the full replica roster
// (sequencer first): location-service lookups return the nearest
// replicas, but all-peer chunk negotiation needs every one. The
// sequencer answers from its peer bookkeeping; peers relay to the
// sequencer. Outside the core replica-op range (0x10+) and far from
// the rpc-reserved band (0xFF00+).
const opPeerRoster uint16 = 0x30

// encodeRoster serializes an address list (sequencer first).
func encodeRoster(addrs []string) []byte {
	w := wire.NewWriter(16 + 32*len(addrs))
	w.Count(len(addrs))
	for _, a := range addrs {
		w.Str(a)
	}
	return w.Bytes()
}

func decodeRoster(b []byte) ([]string, error) {
	r := wire.NewReader(b)
	n := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		addrs = append(addrs, r.Str())
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return addrs, nil
}

// sequencer orders all writes: it executes each locally, stamps it with
// the new version, and applies it at every peer before acknowledging.
type sequencer struct {
	*replicaBase
	writeMu sync.Mutex
}

func newSequencer(env *core.Env) (core.Replication, error) {
	if env.Disp == nil {
		return nil, fmt.Errorf("repl: %s sequencer needs a dispatcher", Active)
	}
	s := &sequencer{replicaBase: newReplicaBase(env)}
	env.Disp.Register(env.OID, s.handle)
	return s, nil
}

func (s *sequencer) Invoke(inv core.Invocation) ([]byte, time.Duration, error) {
	if inv.Write {
		return s.write(inv)
	}
	out, err := s.env.Exec.Execute(inv)
	return out, 0, err
}

func (s *sequencer) Close() error {
	s.env.Disp.Unregister(s.env.OID)
	return nil
}

func (s *sequencer) handle(call *rpc.Call) ([]byte, error) {
	if handled, resp, err := s.handleCommon(call); handled {
		return resp, err
	}
	if call.Op == opPeerRoster {
		// The roster reveals only transport addresses, which lookups
		// serve anyway; no write authorization needed.
		return encodeRoster(append([]string{s.env.Disp.Addr()}, s.peerAddrs()...)), nil
	}
	if call.Op != core.OpInvoke {
		return nil, fmt.Errorf("repl: %s sequencer: unexpected op %d", Active, call.Op)
	}
	inv, err := core.DecodeInvocation(call.Body)
	if err != nil {
		return nil, err
	}
	if !inv.Write {
		return s.env.Exec.Execute(inv)
	}
	if err := authorizeWrite(s.env, call); err != nil {
		return nil, err
	}
	out, cost, err := s.write(inv)
	call.Charge(cost)
	return out, err
}

// write orders one write: local execution, then parallel OpApply to
// every peer. The writeMu ensures applies leave in version order.
func (s *sequencer) write(inv core.Invocation) ([]byte, time.Duration, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()

	out, err := s.env.Exec.Execute(inv)
	if err != nil {
		return nil, 0, err
	}
	version := s.bumpVersion()

	addrs := s.peerAddrs()
	var total time.Duration
	if len(addrs) > 0 {
		cost, perr := s.pushAll(addrs, core.OpApply, encodeApply(version, inv))
		total += cost
		if perr != nil {
			s.env.Logf("repl: %s sequencer %s: apply: %v", Active, s.env.OID.Short(), perr)
		}
	}
	if cacheSubs := s.subscribers(RoleCache); len(cacheSubs) > 0 {
		cacheAddrs := make([]string, len(cacheSubs))
		for i, sub := range cacheSubs {
			cacheAddrs[i] = sub.addr
		}
		cost, perr := s.pushAll(cacheAddrs, core.OpInvalidate, nil)
		total += cost
		if perr != nil {
			s.env.Logf("repl: %s sequencer %s: invalidate: %v", Active, s.env.OID.Short(), perr)
		}
	}
	return out, total, nil
}

func (s *sequencer) peerAddrs() []string {
	seen := make(map[string]bool)
	var out []string
	for _, ca := range s.env.PeersWithRole(RolePeer) {
		if !seen[ca.Address] {
			seen[ca.Address] = true
			out = append(out, ca.Address)
		}
	}
	for _, sub := range s.subscribers(RolePeer) {
		if !seen[sub.addr] {
			seen[sub.addr] = true
			out = append(out, sub.addr)
		}
	}
	return out
}

// activePeer executes ordered writes from the sequencer and serves
// reads locally.
type activePeer struct {
	*replicaBase
	seqAddr string
}

func newActivePeer(env *core.Env) (core.Replication, error) {
	if env.Disp == nil {
		return nil, fmt.Errorf("repl: %s peer needs a dispatcher", Active)
	}
	seqs := env.PeersWithRole(RoleSequencer)
	if len(seqs) == 0 {
		return nil, fmt.Errorf("repl: %s peer for %s: no sequencer in peer set", Active, env.OID.Short())
	}
	p := &activePeer{replicaBase: newReplicaBase(env), seqAddr: seqs[0].Address}

	_, version, state, pins, _, err := p.fetchState(obs.SpanContext{}, p.env.Dial(p.seqAddr), 0)
	if err != nil {
		return nil, fmt.Errorf("repl: %s peer: initial state transfer: %w", Active, err)
	}
	err = env.Exec.UnmarshalState(state)
	p.releasePins(pins)
	if err != nil {
		return nil, fmt.Errorf("repl: %s peer: install state: %w", Active, err)
	}
	p.setVersion(version)
	if err := p.subscribeTo(p.seqAddr, env.Disp.Addr(), RolePeer); err != nil {
		return nil, fmt.Errorf("repl: %s peer: subscribe: %w", Active, err)
	}
	env.Disp.Register(env.OID, p.handle)
	return p, nil
}

func (p *activePeer) Invoke(inv core.Invocation) ([]byte, time.Duration, error) {
	if inv.Write {
		return p.env.Dial(p.seqAddr).Call(obs.SpanContext{}, core.OpInvoke, inv.Encode())
	}
	out, err := p.env.Exec.Execute(inv)
	return out, 0, err
}

func (p *activePeer) Close() error {
	p.env.Disp.Unregister(p.env.OID)
	p.unsubscribeFrom(p.seqAddr, p.env.Disp.Addr())
	return nil
}

func (p *activePeer) handle(call *rpc.Call) ([]byte, error) {
	if handled, resp, err := p.handleCommon(call); handled {
		return resp, err
	}
	if call.Op == opPeerRoster {
		// The sequencer owns the authoritative roster; relay.
		resp, cost, err := p.env.Dial(p.seqAddr).Call(call.TC, opPeerRoster, call.Body)
		call.Charge(cost)
		return resp, err
	}
	switch call.Op {
	case core.OpInvoke:
		inv, err := core.DecodeInvocation(call.Body)
		if err != nil {
			return nil, err
		}
		if inv.Write {
			if err := authorizeWrite(p.env, call); err != nil {
				return nil, err
			}
			resp, cost, err := p.env.Dial(p.seqAddr).Call(call.TC, core.OpInvoke, call.Body)
			call.Charge(cost)
			return resp, err
		}
		return p.env.Exec.Execute(inv)
	case core.OpApply:
		if err := authorizeWrite(p.env, call); err != nil {
			return nil, err
		}
		return nil, p.apply(call)
	default:
		return nil, fmt.Errorf("repl: %s peer: unexpected op %d", Active, call.Op)
	}
}

// apply executes one ordered write. A version gap means we missed an
// apply (e.g. while restarting); recover with a full state transfer
// rather than replaying.
func (p *activePeer) apply(call *rpc.Call) error {
	version, inv, err := decodeApply(call.Body)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case version <= p.version:
		return nil // duplicate
	case version == p.version+1:
		if _, err := p.env.Exec.Execute(inv); err != nil {
			return err
		}
		p.version = version
		return nil
	default:
		fresh, v, state, pins, cost, err := p.fetchState(call.TC, p.env.Dial(p.seqAddr), p.version)
		call.Charge(cost)
		if err != nil {
			return fmt.Errorf("repl: %s peer: resync after gap: %w", Active, err)
		}
		// fresh means the "gap" was a forged or duplicated version — the
		// sequencer confirms our state is current, so apply nothing.
		if !fresh {
			err := p.env.Exec.UnmarshalState(state)
			p.releasePins(pins)
			if err != nil {
				return err
			}
			p.version = v
		} else {
			p.releasePins(pins)
		}
		return nil
	}
}

func encodeApply(version uint64, inv core.Invocation) []byte {
	encoded := inv.Encode()
	out := binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(encoded)), version)
	return append(out, encoded...)
}

func decodeApply(b []byte) (uint64, core.Invocation, error) {
	if len(b) < 8 {
		return 0, core.Invocation{}, fmt.Errorf("repl: truncated apply message")
	}
	inv, err := core.DecodeInvocation(b[8:])
	return binary.BigEndian.Uint64(b), inv, err
}

// activeProxy is the proxy that reads from a healthy peer replica and
// writes to the sequencer (through a forwarding peer when the
// sequencer address is unreachable). Only chunk negotiation differs
// from the shared proxy: it must reach every replica of the roster.
type activeProxy struct {
	*proxy
}

func newActiveProxy(env *core.Env) (core.Replication, error) {
	p, err := newProxy(env, []string{RolePeer, RoleSequencer}, []string{RoleSequencer, RolePeer})
	if err != nil {
		return nil, err
	}
	return &activeProxy{proxy: p}, nil
}

// roster fetches the full replica roster (sequencer first) through any
// reachable candidate: the binding lookup only returned the nearest
// replicas, but all-peer negotiation must reach every one, wherever it
// registered.
func (p *activeProxy) roster() ([]string, time.Duration, error) {
	var addrs []string
	cost, err := p.peers.Do(false, func(_ string, pc *core.PeerClient) (time.Duration, error) {
		resp, c, err := pc.Call(obs.SpanContext{}, opPeerRoster, nil)
		if err != nil {
			return c, err
		}
		got, derr := decodeRoster(resp)
		if derr != nil {
			return c, core.NoFailover(derr)
		}
		addrs = got
		return c, nil
	})
	if err != nil {
		return nil, cost, fmt.Errorf("repl: %s proxy for %s: fetch replica roster: %w", Active, p.env.OID.Short(), err)
	}
	if len(addrs) == 0 {
		return nil, cost, fmt.Errorf("repl: %s proxy for %s: empty replica roster", Active, p.env.OID.Short())
	}
	return addrs, cost, nil
}

// PutChunks implements core.ChunkNegotiator for active replication:
// writes replay at every peer, so a manifest write needs its chunks at
// every store, and the proxy runs the one chunk upload against each
// replica of the roster in turn — each replica is shipped exactly its
// own gap, and an unchanged re-deploy moves no chunk bodies. Any
// unreachable replica fails the upload (the uploader falls back to
// content-bearing writes, which the sequencer replays with the bytes
// attached), so no peer is left without the chunks a manifest names;
// what already landed elsewhere sits unreferenced until swept.
func (p *activeProxy) PutChunks(src core.ChunkSource, refs []store.Ref) (core.UploadStats, time.Duration, error) {
	var stats core.UploadStats
	addrs, total, err := p.roster()
	if err != nil {
		return stats, total, err
	}
	for _, addr := range addrs {
		got, cost, err := putChunksTo(p.peers.ClientFor(addr), src, refs)
		total += cost
		stats.Offered = got.Offered
		stats.Sent += got.Sent
		stats.SentBytes += got.SentBytes
		if err != nil {
			return stats, total, fmt.Errorf("repl: %s: upload chunks to %s: %w", Active, addr, err)
		}
	}
	return stats, total, nil
}
