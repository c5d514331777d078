package gls

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gdn/internal/ids"
	"gdn/internal/obs"
	"gdn/internal/wire"
)

// ServerSession is the client side of a registration session: one lease
// a server (a GOS, or a caching HTTPD acting as a replica) holds with
// its leaf directory node, covering every contact address attached
// through it. The server heartbeats with a single Renew per interval —
// O(1) in the number of hosted replicas — and when it dies, every
// attached entry ages out of lookups within one TTL.
//
// A leaf directory node may be partitioned into subnodes, each owning a
// slice of the object-identifier space; the session is opened at every
// subnode, attaches route to the subnode owning each identifier, and
// Renew touches each subnode once. The session keeps books of what it
// attached and, per subnode, their digest (see entryHash); each renewal
// answer carries the digest of the entries riding the session at that
// subnode. Any difference — the subnode lost the session, restarted
// from state older than some attaches or detaches, or holds an entry
// whose Detach failed or whose Attach answer was lost — is repaired by
// one reattach that replaces the session's entries there with the
// books.
//
// ServerSession is safe for concurrent use.
type ServerSession struct {
	res  *Resolver
	id   ids.OID
	addr string
	ttl  time.Duration

	// repairMu keeps a repair from removing an acknowledged entry:
	// Attach, Detach and AttachBatch hold it shared from their RPC until
	// the books record the outcome, a repair holds it exclusively from
	// its snapshot of the books until its reattach returns.
	repairMu sync.RWMutex

	mu       sync.Mutex
	attached map[ids.OID]ContactAddress
	digests  []uint64 // per leaf subnode: the digest of the attached entries it owns

	// draining is the server's declared drain state; every renewal and
	// reattach carries it, so the drain rides the heartbeat and
	// re-establishes itself on subnodes that lost it.
	draining atomic.Bool

	reopenMu  sync.Mutex
	reopening map[string]*reopenFlight
}

// reopenFlight is one in-progress session reopen at a subnode, shared
// by every caller that observed ErrUnknownSession while it was running.
type reopenFlight struct {
	done chan struct{}
	cost time.Duration
	err  error
}

// sessionCloseTimeout bounds each per-subnode RPC in Close. Close runs
// on shutdown paths, and an unreachable subnode (crashed, or behind a
// partition) must not wedge them: its entries age out within one
// session TTL anyway, so waiting longer buys nothing.
var sessionCloseTimeout = 2 * time.Second

// OpenSession opens a registration session for a server at the given
// transport address: its registrations are attached with Attach and
// kept alive with Renew. The ttl must be positive; sub-second TTLs
// round up to one second.
func (r *Resolver) OpenSession(addr string, ttl time.Duration) (*ServerSession, time.Duration, error) {
	if r.leaf.IsZero() {
		return nil, 0, ErrNoAddrs
	}
	if addr == "" || ttl <= 0 {
		return nil, 0, fmt.Errorf("gls: a registration session needs an address and a positive TTL")
	}
	s := &ServerSession{
		res:      r,
		id:       ids.New(),
		addr:     addr,
		ttl:      ttl,
		attached: make(map[ids.OID]ContactAddress),
		digests:  make([]uint64, len(r.leaf.Addrs)),
	}
	var total time.Duration
	for _, sub := range r.leaf.Addrs {
		cost, err := s.openAt(sub)
		total += cost
		if err != nil {
			return nil, total, fmt.Errorf("gls: open session at %s: %w", sub, err)
		}
	}
	return s, total, nil
}

// ID returns the session identifier.
func (s *ServerSession) ID() ids.OID { return s.id }

// Addr returns the transport address the session covers.
func (s *ServerSession) Addr() string { return s.addr }

// TTL returns the session lease lifetime.
func (s *ServerSession) TTL() time.Duration { return s.ttl }

func (s *ServerSession) ttlSecs() uint32 {
	return uint32((s.ttl + time.Second - 1) / time.Second)
}

// openAt (re)opens the session at one subnode.
func (s *ServerSession) openAt(sub string) (time.Duration, error) {
	w := wire.NewWriter(64 + len(s.addr))
	w.OID(s.id)
	w.Str(s.addr)
	w.Uint32(s.ttlSecs())
	_, cost, err := s.res.client(sub).Call(obs.SpanContext{}, OpSessionOpen, w.Bytes())
	return cost, err
}

// book records ca as oid's entry in the books, or drops oid's entry
// when remove is set, keeping the owning subnode's digest in step. The
// caller holds s.mu.
func (s *ServerSession) book(oid ids.OID, ca ContactAddress, remove bool) {
	digest := &s.digests[oid.Subnode(len(s.digests))]
	if old, ok := s.attached[oid]; ok {
		*digest -= entryHash(oid, old)
		delete(s.attached, oid)
	}
	if !remove {
		s.attached[oid] = ca
		*digest += entryHash(oid, ca)
	}
}

// Attach registers one contact address through the session: the entry
// stays in lookups exactly as long as the session is renewed. A nil oid
// asks the service to allocate a fresh identifier; the identifier
// actually registered is returned either way. When the owning subnode
// no longer knows the session, Attach reopens it there and retries
// once. A failed Attach leaves the books as they were, so whatever it
// did at the node goes with the next renewal's repair.
func (s *ServerSession) Attach(oid ids.OID, ca ContactAddress) (ids.OID, time.Duration, error) {
	if oid.IsNil() {
		oid = ids.New()
	}
	s.repairMu.RLock()
	defer s.repairMu.RUnlock()
	cost, err := s.insert(oid, ca)
	if IsUnknownSession(err) {
		c, oerr := s.reopenAt(s.res.leaf.Route(oid))
		cost += c
		if oerr != nil {
			return ids.Nil, cost, fmt.Errorf("gls: reopen session: %w", oerr)
		}
		c, err = s.insert(oid, ca)
		cost += c
	}
	if err != nil {
		return ids.Nil, cost, err
	}
	s.mu.Lock()
	s.book(oid, ca, false)
	s.mu.Unlock()
	return oid, cost, nil
}

// Detach deregisters one attached entry now (rather than letting it die
// with the session) and drops it from the books. When the delete fails,
// the next renewal's repair removes the entry.
func (s *ServerSession) Detach(oid ids.OID) (time.Duration, error) {
	s.repairMu.RLock()
	defer s.repairMu.RUnlock()
	s.mu.Lock()
	ca, ok := s.attached[oid]
	s.book(oid, ca, true)
	s.mu.Unlock()
	if !ok {
		return 0, nil
	}
	w := wire.NewWriter(64)
	w.OID(oid)
	w.Str(ca.Address)
	_, cost, err := s.res.client(s.res.leaf.Route(oid)).Call(obs.SpanContext{}, OpDelete, w.Bytes())
	return cost, err
}

// insert attaches ca to the session at the subnode owning oid.
func (s *ServerSession) insert(oid ids.OID, ca ContactAddress) (time.Duration, error) {
	w := wire.NewWriter(96)
	w.OID(oid)
	ca.encode(w)
	w.OID(s.id)
	_, cost, err := s.res.client(s.res.leaf.Route(oid)).Call(obs.SpanContext{}, OpInsert, w.Bytes())
	return cost, err
}

// Renew extends the session lease — one round trip per leaf subnode, no
// matter how many entries are attached. Each answer says whether the
// subnode knows the session and carries its digest of the entries
// riding it there; a subnode that does not know the session, or whose
// digest differs from the books', is repaired in place by reattachAt.
// An unreachable subnode costs one timeout and is repaired on the
// first renewal it answers.
func (s *ServerSession) Renew() (time.Duration, error) {
	start := time.Now()
	defer mSessionRenewSeconds.ObserveSince(start)
	w := wire.NewWriter(32)
	w.OID(s.id)
	w.Uint32(s.ttlSecs())
	w.Bool(s.draining.Load())
	body := w.Bytes()
	var total time.Duration
	var firstErr error
	for i, sub := range s.res.leaf.Addrs {
		match, cost, err := s.renewAt(i, body)
		total += cost
		if err == nil && !match {
			cost, err = s.reattachAt(i, body)
			total += cost
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("gls: renew session at %s: %w", sub, err)
		}
	}
	return total, firstErr
}

// renewAt sends the renewal body to leaf subnode i and reports whether
// the subnode knows the session and its digest matches the books.
func (s *ServerSession) renewAt(i int, body []byte) (match bool, cost time.Duration, err error) {
	resp, cost, err := s.res.client(s.res.leaf.Addrs[i]).Call(obs.SpanContext{}, OpSessionRenew, body)
	if err != nil {
		return false, cost, err
	}
	r := wire.NewReader(resp)
	known, digest := r.Bool(), r.Uint64()
	if err := r.Done(); err != nil {
		return false, cost, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return known && digest == s.digests[i], cost, nil
}

// reopenAt coalesces concurrent session reopens at one subnode. When a
// partition heals, every in-flight Attach observes ErrUnknownSession at
// once; without coalescing each would issue its own OpSessionOpen — a
// reopen storm proportional to the attach concurrency. The first caller
// performs the RPC, the rest wait for its outcome; only the leader
// reports the RPC's cost, so the network meter stays honest.
func (s *ServerSession) reopenAt(sub string) (time.Duration, error) {
	s.reopenMu.Lock()
	if f := s.reopening[sub]; f != nil {
		s.reopenMu.Unlock()
		<-f.done
		return 0, f.err
	}
	f := &reopenFlight{done: make(chan struct{})}
	if s.reopening == nil {
		s.reopening = make(map[string]*reopenFlight)
	}
	s.reopening[sub] = f
	s.reopenMu.Unlock()

	f.cost, f.err = s.openAt(sub)

	s.reopenMu.Lock()
	delete(s.reopening, sub)
	s.reopenMu.Unlock()
	close(f.done)
	return f.cost, f.err
}

// reattachAt repairs leaf subnode i: one OpSessionReattach round trip
// reopens the session there and makes the books' entries that subnode
// owns exactly the entries riding the session there. It holds repairMu
// exclusively, so no Attach is in flight whose entry its snapshot of the
// books lacks, and first renews again: a mismatch seen during an Attach
// may be just that Attach's entry, and then there is nothing to repair.
func (s *ServerSession) reattachAt(i int, body []byte) (time.Duration, error) {
	s.repairMu.Lock()
	defer s.repairMu.Unlock()
	match, cost, err := s.renewAt(i, body)
	if err != nil || match {
		return cost, err
	}
	s.mu.Lock()
	entries := make([]reattachEntry, 0, len(s.attached))
	for oid, ca := range s.attached {
		if oid.Subnode(len(s.digests)) == i {
			entries = append(entries, reattachEntry{oid: oid, ca: ca})
		}
	}
	s.mu.Unlock()
	c, err := s.reattach(s.res.leaf.Addrs[i], reattachReplace, entries)
	if err != nil {
		return cost + c, fmt.Errorf("re-attach: %w", err)
	}
	return cost + c, nil
}

// reattach sends one OpSessionReattach of entries to subnode sub.
func (s *ServerSession) reattach(sub string, mode uint8, entries []reattachEntry) (time.Duration, error) {
	w := wire.NewWriter(64 + len(s.addr) + 80*len(entries))
	w.OID(s.id)
	w.Str(s.addr)
	w.Uint32(s.ttlSecs())
	w.Bool(s.draining.Load())
	w.Uint8(mode)
	w.Count(len(entries))
	for _, e := range entries {
		w.OID(e.oid)
		e.ca.encode(w)
	}
	_, cost, err := s.res.client(sub).Call(obs.SpanContext{}, OpSessionReattach, w.Bytes())
	return cost, err
}

// AttachBatch registers many contact addresses through the session in
// one batched OpSessionReattach round trip per leaf subnode — the
// bulk path for a server bringing a large replica population online,
// where per-entry Attach RPCs would cost a round trip each. Callers
// mint the identifiers themselves (a nil identifier is rejected, since
// a batch cannot report per-entry allocations). The batch adds to what
// the session holds; the books take each subnode's entries once that
// subnode acknowledged them.
func (s *ServerSession) AttachBatch(entries map[ids.OID]ContactAddress) (time.Duration, error) {
	bySub := make(map[string][]reattachEntry, len(s.res.leaf.Addrs))
	for oid, ca := range entries {
		if oid.IsNil() {
			return 0, fmt.Errorf("gls: AttachBatch needs caller-minted identifiers")
		}
		sub := s.res.leaf.Route(oid)
		bySub[sub] = append(bySub[sub], reattachEntry{oid: oid, ca: ca})
	}
	s.repairMu.RLock()
	defer s.repairMu.RUnlock()
	var total time.Duration
	for sub, batch := range bySub {
		cost, err := s.reattach(sub, reattachAdd, batch)
		total += cost
		if err != nil {
			return total, fmt.Errorf("gls: batch attach at %s: %w", sub, err)
		}
		s.mu.Lock()
		for _, e := range batch {
			s.book(e.oid, e.ca, false)
		}
		s.mu.Unlock()
	}
	return total, nil
}

// Drain marks (or clears) the session as draining: every entry attached
// through it stops appearing in lookups while healthy alternatives
// exist, without losing any registration state. This is the location
// service's one drain path. The bit rides the session heartbeat —
// Drain records the desired state and performs one immediate Renew, so
// the change reaches every leaf subnode in the one batched RPC a
// renewal already costs, and every subsequent heartbeat re-asserts it.
// The directory node stores the drain flag with the session, so it
// survives a node restart but not the session: a new session, such as
// a restarted server's, starts undrained.
func (s *ServerSession) Drain(draining bool) (time.Duration, error) {
	s.draining.Store(draining)
	return s.Renew()
}

// Close ends the session at every subnode: each attached entry expires
// immediately. This is the orderly-shutdown path; a crashed server
// simply stops renewing and its entries age out within one TTL. Each
// per-subnode close is bounded by a short deadline so an unreachable
// subnode cannot block shutdown indefinitely — its entries expire with
// the unrenewed session regardless.
func (s *ServerSession) Close() (time.Duration, error) {
	w := wire.NewWriter(ids.Size)
	w.OID(s.id)
	body := w.Bytes()
	var total time.Duration
	var firstErr error
	for _, sub := range s.res.leaf.Addrs {
		_, cost, err := s.res.client(sub).CallTimeout(obs.SpanContext{}, OpSessionClose, body, sessionCloseTimeout)
		total += cost
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// What follows is the directory node's side of a session: the session
// table that every entry's liveness and drain hang off, and the one path
// by which a session changes.

// session is one server's registration session: a single lease covering
// every contact address the server attached through it, and the only
// owner of those entries' liveness and drain. Renewal touches the
// session, not the entries, so a server hosting thousands of replicas
// keeps them all alive with one renew per heartbeat — and a server that
// dies takes every attached entry out of lookups within one TTL. The
// hot fields are atomics because lookups consult sessions while holding
// only a record-shard read lock; addr and ttl are guarded by the node's
// sessMu, under which every session change runs (editSession).
type session struct {
	id ids.OID

	addr string // the server's transport address
	ttl  time.Duration

	expiresNano atomic.Int64
	closed      atomic.Bool
	// drained is the drain bit the owner last sent on a renewal or
	// reattach: every entry riding the session drains with it. A new
	// session starts undrained, so a server process that drained and
	// died does not hide its successor at the same address.
	drained atomic.Bool
	// digest is the sum mod 2⁶⁴ of entryHash over the entries riding
	// this session. Renewal responses carry it, so the owner sees any
	// difference between this node's entries and its own books — a
	// restart from older state, a lost or stale entry — and repairs it
	// with a replacing reattach.
	digest atomic.Uint64
}

func (s *session) expired(now time.Time) bool {
	return s.closed.Load() || now.UnixNano() > s.expiresNano.Load()
}

// lookupSession resolves a session the node holds or reports
// ErrUnknownSession. A closed session leaves the table when it closes.
func (n *Node) lookupSession(sid ids.OID) (*session, error) {
	n.sessMu.RLock()
	sess := n.sessions[sid]
	n.sessMu.RUnlock()
	if sess == nil {
		return nil, fmt.Errorf("%w: %s at %s", ErrUnknownSession, sid.Short(), n.cfg.Domain)
	}
	return sess, nil
}

// editSession is the one way a session changes: open, TTL, drain,
// close and reap. It runs edit on session sid (nil when absent) under
// sessMu, which guards the table and each session's addr and ttl, and
// marks the session dirty when edit reports a change.
func (n *Node) editSession(sid ids.OID, edit func(sess *session) (changed bool)) {
	n.sessMu.Lock()
	if edit(n.sessions[sid]) {
		n.markSession(sid)
	}
	n.sessMu.Unlock()
}

// openSession creates session sid when sess is nil, sets its address
// and renews it for ttl, reporting a new address or TTL (a new session
// has neither). It runs inside editSession, as do renewLease and
// setDrain.
func (n *Node) openSession(sess *session, sid ids.OID, addr string, ttl time.Duration) (*session, bool) {
	if sess == nil {
		sess = &session{id: sid}
		n.sessions[sid] = sess
	}
	moved := sess.addr != addr
	sess.addr = addr
	return sess, n.renewLease(sess, ttl) || moved
}

// renewLease sets a positive ttl and extends the lease by the TTL from
// now, reporting a changed TTL. It revives an expired, unswept session
// and every entry riding it.
func (n *Node) renewLease(sess *session, ttl time.Duration) bool {
	changed := ttl > 0 && ttl != sess.ttl
	if changed {
		sess.ttl = ttl
	}
	sess.expiresNano.Store(n.cfg.Clock().Add(sess.ttl).UnixNano())
	return changed
}

// setDrain sets the drain flag from the owner's bit, reporting a change.
func (n *Node) setDrain(sess *session, draining bool) bool {
	if sess.drained.Swap(draining) == draining {
		return false
	}
	n.stats.drains.Add(1)
	return true
}

// endSession closes sess and removes it from the table. Entries keep
// their pointer to the struct, so closing it expires them all at once,
// wherever they are referenced. It runs inside editSession.
func (n *Node) endSession(sess *session) bool {
	sess.closed.Store(true)
	delete(n.sessions, sess.id)
	return true
}

// Sessions returns the number of live registration sessions at this
// subnode; tests and diagnostics read it.
func (n *Node) Sessions() int {
	n.sessMu.RLock()
	defer n.sessMu.RUnlock()
	return len(n.sessions)
}

// reapSessions deletes sessions whose lease ran out; their entries
// were (or will be) reclaimed by the shard sweeps, and a server that
// comes back later learns from the unknown-session renewal response
// that it must re-attach.
func (n *Node) reapSessions(now time.Time) {
	n.sessMu.RLock()
	var dead []ids.OID
	for sid, sess := range n.sessions {
		if sess.expired(now) {
			dead = append(dead, sid)
		}
	}
	n.sessMu.RUnlock()
	for _, sid := range dead {
		n.editSession(sid, func(sess *session) bool {
			// A renewal since the scan revives the session.
			if sess == nil || !sess.expired(now) {
				return false
			}
			mSessionsExpired.Inc()
			return n.endSession(sess)
		})
	}
}
