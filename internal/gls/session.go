package gls

import (
	"fmt"
	"sync"
	"time"

	"gdn/internal/ids"
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
// Renew touches each subnode once. The session remembers what it
// attached, so a directory subnode that lost the session (restarted
// without its state, or reaped it after missed heartbeats) is
// repaired transparently: the next Renew reopens the session there and
// re-attaches the entries that subnode owns. It also remembers entries
// the node may hold beyond its books — a Detach whose delete failed, an
// Attach whose answer was lost after the node applied it — and Renew
// deletes those again at each subnode that answers it: re-attach only
// adds entries, so a count the node holds too high would never settle.
//
// ServerSession is safe for concurrent use.
type ServerSession struct {
	res  *Resolver
	id   ids.OID
	addr string
	ttl  time.Duration

	mu       sync.Mutex
	attached map[ids.OID]ContactAddress
	stale    map[ids.OID]string // entries to delete again: oid -> transport address

	// drainSet/draining are the server's declared drain state. Once set,
	// every renewal (and re-attach repair) carries the bit, so the
	// drain both propagates in the heartbeat the server was sending
	// anyway and re-establishes itself on subnodes that lost it.
	drainMu  sync.Mutex
	drainSet bool
	draining bool

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

// sessionCloseTimeout bounds each per-subnode RPC in Close, and each
// delete of a stale entry in Renew. Close runs on shutdown paths, and
// an unreachable subnode (crashed, or behind a partition) must not
// wedge them: its entries age out within one session TTL anyway, so
// waiting longer buys nothing.
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
		stale:    make(map[ids.OID]string),
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
	_, cost, err := s.res.client(sub).Call(OpSessionOpen, w.Bytes())
	return cost, err
}

// Attach registers one contact address through the session: the entry
// stays in lookups exactly as long as the session is renewed. A nil oid
// asks the service to allocate a fresh identifier; the identifier
// actually registered is returned either way. When the owning subnode
// no longer knows the session, Attach reopens it there and retries
// once. A failed Attach may still have reached the node, so the entry
// is deleted again on the next Renew unless a later Attach of the same
// object succeeds first.
func (s *ServerSession) Attach(oid ids.OID, ca ContactAddress) (ids.OID, time.Duration, error) {
	if oid.IsNil() {
		oid = ids.New()
	}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if have, ok := s.attached[oid]; !ok || have.Address != ca.Address {
			s.stale[oid] = ca.Address
		}
		return ids.Nil, cost, err
	}
	s.attached[oid] = ca
	delete(s.stale, oid)
	return oid, cost, nil
}

// Detach deregisters one attached entry now (rather than letting it die
// with the session) and drops it from the session's re-attach set. When
// the delete fails, the next Renew deletes the entry again.
func (s *ServerSession) Detach(oid ids.OID) (time.Duration, error) {
	s.mu.Lock()
	ca, ok := s.attached[oid]
	delete(s.attached, oid)
	s.mu.Unlock()
	if !ok {
		return 0, nil
	}
	cost, err := s.delete(oid, ca.Address, 0)
	if err != nil {
		s.mu.Lock()
		if _, again := s.attached[oid]; !again {
			s.stale[oid] = ca.Address
		}
		s.mu.Unlock()
	}
	return cost, err
}

// insert attaches ca to the session at the subnode owning oid.
func (s *ServerSession) insert(oid ids.OID, ca ContactAddress) (time.Duration, error) {
	w := wire.NewWriter(96)
	w.OID(oid)
	ca.encode(w)
	w.OID(s.id)
	_, cost, err := s.res.client(s.res.leaf.Route(oid)).Call(OpInsert, w.Bytes())
	return cost, err
}

// delete removes oid's contact addresses at addr from the subnode owning
// oid; a zero timeout selects the client's.
func (s *ServerSession) delete(oid ids.OID, addr string, timeout time.Duration) (time.Duration, error) {
	w := wire.NewWriter(64)
	w.OID(oid)
	w.Str(addr)
	_, cost, err := s.res.client(s.res.leaf.Route(oid)).CallTimeout(OpDelete, w.Bytes(), timeout)
	return cost, err
}

// deleteStaleAt deletes again the stale entries that subnode sub owns,
// forgets each whose delete succeeded, and reports how many did. Each
// delete is bounded like a close, and the first failure ends the pass:
// the entries left over wait for the next renewal.
func (s *ServerSession) deleteStaleAt(sub string) (total time.Duration, deleted int, err error) {
	s.mu.Lock()
	var stale map[ids.OID]string // stays nil in the steady state: a heartbeat allocates nothing here
	for oid, addr := range s.stale {
		if s.res.leaf.Route(oid) == sub {
			if stale == nil {
				stale = make(map[ids.OID]string)
			}
			stale[oid] = addr
		}
	}
	s.mu.Unlock()
	for oid, addr := range stale {
		cost, err := s.delete(oid, addr, sessionCloseTimeout)
		total += cost
		if err != nil {
			return total, deleted, fmt.Errorf("gls: delete stale entry %s: %w", oid.Short(), err)
		}
		deleted++
		s.mu.Lock()
		if s.stale[oid] == addr {
			delete(s.stale, oid)
		}
		s.mu.Unlock()
	}
	return total, deleted, nil
}

// Renew extends the session lease — one round trip per leaf subnode, no
// matter how many entries are attached. A subnode that answered then
// gets its stale entries deleted again; one that did not keeps them for
// the next renewal, so an unreachable subnode costs one timeout however
// many entries it holds. A subnode whose state disagrees with the
// server's books is repaired in place: one that lost the session
// entirely (known=false), or one that restarted from state older than
// some attaches (its attached-entry count differs), gets the session
// reopened and the entries that subnode owns re-attached. A count
// answered before stale deletes is compared on the next renewal.
func (s *ServerSession) Renew() (time.Duration, error) {
	start := time.Now()
	defer mSessionRenewSeconds.ObserveSince(start)
	var total time.Duration
	var firstErr error
	w := wire.NewWriter(32)
	w.OID(s.id)
	w.Uint32(s.ttlSecs())
	if hasDrain, draining := s.drainState(); hasDrain {
		w.Bool(true)
		w.Bool(draining)
	}
	body := w.Bytes()

	// What each subnode should be holding, by the server's own books. A
	// single-subnode leaf skips the per-entry routing pass: with a
	// million attached entries the renewal must stay O(1), not O(n).
	expect := make(map[string]int, len(s.res.leaf.Addrs))
	s.mu.Lock()
	if len(s.res.leaf.Addrs) == 1 {
		expect[s.res.leaf.Addrs[0]] = len(s.attached)
	} else {
		for oid := range s.attached {
			expect[s.res.leaf.Route(oid)]++
		}
	}
	s.mu.Unlock()

	for _, sub := range s.res.leaf.Addrs {
		resp, cost, err := s.res.client(sub).Call(OpSessionRenew, body)
		total += cost
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("gls: renew session at %s: %w", sub, err)
			}
			continue
		}
		r := wire.NewReader(resp)
		known := r.Bool()
		attached := int(r.Uint32())
		if err := r.Done(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		cost, deleted, err := s.deleteStaleAt(sub)
		total += cost
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if !known || (deleted == 0 && attached != expect[sub]) {
			cost, err := s.reattachAt(sub)
			total += cost
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return total, firstErr
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

// reattachAt repairs a directory subnode that lost the session
// (restarted without — or rolled back beyond — its state): one
// OpSessionReattach round trip reopens the session there and
// re-registers every attached entry that subnode owns. The batched op
// replaces the earlier open-plus-insert-per-entry sequence, whose cost
// after a partition heal grew with the server's replica count.
func (s *ServerSession) reattachAt(sub string) (time.Duration, error) {
	s.mu.Lock()
	entries := make(map[ids.OID]ContactAddress, len(s.attached))
	for oid, ca := range s.attached {
		if s.res.leaf.Route(oid) == sub {
			entries[oid] = ca
		}
	}
	s.mu.Unlock()
	w := wire.NewWriter(64 + len(s.addr) + 80*len(entries))
	w.OID(s.id)
	w.Str(s.addr)
	w.Uint32(s.ttlSecs())
	w.Count(len(entries))
	for oid, ca := range entries {
		w.OID(oid)
		ca.encode(w)
	}
	if hasDrain, draining := s.drainState(); hasDrain {
		w.Bool(true)
		w.Bool(draining)
	}
	_, cost, err := s.res.client(sub).Call(OpSessionReattach, w.Bytes())
	if err != nil {
		return cost, fmt.Errorf("gls: re-attach session at %s: %w", sub, err)
	}
	return cost, nil
}

// AttachBatch registers many contact addresses through the session in
// one batched OpSessionReattach round trip per leaf subnode — the
// bulk path for a server bringing a large replica population online,
// where per-entry Attach RPCs would cost a round trip each. Callers
// mint the identifiers themselves (a nil identifier is rejected, since
// a batch cannot report per-entry allocations).
func (s *ServerSession) AttachBatch(entries map[ids.OID]ContactAddress) (time.Duration, error) {
	bySub := make(map[string][]reattachEntry, len(s.res.leaf.Addrs))
	for oid, ca := range entries {
		if oid.IsNil() {
			return 0, fmt.Errorf("gls: AttachBatch needs caller-minted identifiers")
		}
		sub := s.res.leaf.Route(oid)
		bySub[sub] = append(bySub[sub], reattachEntry{oid: oid, ca: ca})
	}
	hasDrain, draining := s.drainState()
	var total time.Duration
	for sub, batch := range bySub {
		w := wire.NewWriter(64 + len(s.addr) + 80*len(batch))
		w.OID(s.id)
		w.Str(s.addr)
		w.Uint32(s.ttlSecs())
		w.Count(len(batch))
		for _, e := range batch {
			w.OID(e.oid)
			e.ca.encode(w)
		}
		if hasDrain {
			w.Bool(true)
			w.Bool(draining)
		}
		_, cost, err := s.res.client(sub).Call(OpSessionReattach, w.Bytes())
		total += cost
		if err != nil {
			return total, fmt.Errorf("gls: batch attach at %s: %w", sub, err)
		}
	}
	s.mu.Lock()
	for oid, ca := range entries {
		s.attached[oid] = ca
		delete(s.stale, oid)
	}
	s.mu.Unlock()
	return total, nil
}

// drainState returns the declared drain bit and whether one was set.
func (s *ServerSession) drainState() (set, draining bool) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.drainSet, s.draining
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
	s.drainMu.Lock()
	s.drainSet = true
	s.draining = draining
	s.drainMu.Unlock()
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
		_, cost, err := s.res.client(sub).CallTimeout(OpSessionClose, body, sessionCloseTimeout)
		total += cost
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}
