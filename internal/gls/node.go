package gls

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gdn/internal/ids"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/transport"
	"gdn/internal/wire"
)

// Config describes one directory subnode.
type Config struct {
	// Domain is the domain this node's directory serves, e.g. "root",
	// "eu" or "eu/nl-vu". All subnodes of one domain share it.
	Domain string
	// Site is the simulated site (or host) the subnode runs on.
	Site string
	// Addr is the transport address the subnode listens on.
	Addr string
	// Self references the whole directory node (all subnode addresses,
	// including this one); it is what gets installed in parent
	// forwarding pointers.
	Self Ref
	// Parent references the parent domain's directory node; zero for
	// the root.
	Parent Ref
	// Seed makes the random choice among multiple forwarding pointers
	// reproducible. The paper picks a pointer at random (§3.5).
	Seed int64
	// Auth, when non-nil, upgrades every connection to an authenticated
	// security channel. Lookups are admitted from anyone, but inserts
	// and deletes only from object servers and administrators, and
	// pointer operations only from fellow directory nodes (paper §6.1,
	// requirement 2).
	Auth *sec.Config
	// Clock supplies the time lease expiry is judged against; nil means
	// wall time. Tests install controllable clocks here.
	Clock func() time.Time
	// SweepEvery is the interval between lease-expiry sweeps that
	// reclaim aged-out records (and tear down their pointer chains).
	// Correctness does not depend on it — lookups filter expired leases
	// lazily — so it defaults generously (5s); negative disables the
	// janitor entirely. The janitor visits one record shard per tick
	// (ticking recShards times per SweepEvery), so no single sweep ever
	// write-locks more than 1/16th of the table.
	SweepEvery time.Duration
	// StateDir, when non-empty, enables incremental persistence: the
	// node restores from <StateDir>/base.snap plus <StateDir>/journal.log
	// at start, appends every mutation to the journal (flushed and
	// fsynced in batches every FlushEvery), and folds the journal into a
	// fresh base snapshot whenever it outgrows CompactBytes. Empty
	// leaves persistence to the caller via Snapshot/Restore.
	StateDir string
	// FlushEvery is the journal flush cadence; zero means one second.
	// Mutations appended since the last flush are the crash loss
	// window — and lease semantics absorb it: a replayed journal
	// restarts every lease relative to the restoring clock, and session
	// owners re-attach anything the node forgot.
	FlushEvery time.Duration
	// CompactBytes is the journal size that triggers folding it into
	// the base snapshot; zero means 8 MiB.
	CompactBytes int64
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// defaultSweepEvery is the lease-janitor interval when the config does
// not choose one.
const defaultSweepEvery = 5 * time.Second

// session is one server's registration session: a single lease covering
// every contact address the server attached through it. Renewal touches
// the session, not the entries, so a server hosting thousands of
// replicas keeps them all alive with one renew per heartbeat — and a
// server that dies takes every attached entry out of lookups within one
// TTL. The hot fields are atomics because lookups consult sessions
// while holding only a record-shard read lock; addr and ttl are guarded
// by the session's own mutex.
type session struct {
	id ids.OID

	mu   sync.Mutex
	addr string // the server's transport address
	ttl  time.Duration

	expiresNano atomic.Int64
	closed      atomic.Bool
	// drained records the drain state as a session attribute, so a
	// snapshot restore brings the drain back with the session instead
	// of forgetting it until the server's next scrub pass.
	drained atomic.Bool
	// attached counts the entries riding this session. Renewal
	// responses echo it, so a server can tell that the node rolled
	// back to a snapshot older than some attaches (the count
	// disagrees with its own books) and re-attach — the self-healing
	// the per-replica heartbeat used to provide for free.
	attached atomic.Int64
}

func (s *session) expired(now time.Time) bool {
	return s.closed.Load() || now.UnixNano() > s.expiresNano.Load()
}

// fields returns the mutex-guarded addr and ttl in one acquisition.
func (s *session) fields() (addr string, ttl time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr, s.ttl
}

// leasedAddr is one registered contact address with its liveness
// contract: attached to a session (sess non-nil — expiry and drain
// follow the session), under its own lease (expires non-zero), or
// permanent (the pre-lease behaviour, still used by experiments that
// register addresses by hand and never heartbeat).
type leasedAddr struct {
	ca      ContactAddress
	expires time.Time
	sess    *session
}

func (la leasedAddr) expired(now time.Time) bool {
	if la.sess != nil {
		return la.sess.expired(now)
	}
	return !la.expires.IsZero() && now.After(la.expires)
}

// record is one object's entry in a directory node: contact addresses
// stored here, and forwarding pointers to child nodes whose subtrees
// store addresses. Either set may be non-empty; intermediate nodes
// normally hold only pointers, but may hold addresses for highly mobile
// objects (§3.5).
type record struct {
	addrs []leasedAddr
	ptrs  map[string]Ref // child domain -> child node reference
}

func (rec *record) empty() bool { return len(rec.addrs) == 0 && len(rec.ptrs) == 0 }

// recShards is the number of lock stripes the record table is split
// over — the same trick as the rpc pending table's 8 stripes and the
// store index's 16, sized so sixteen concurrent resolvers rarely
// collide on a stripe.
const recShards = 16

// recShard is one stripe of the record table. Its mutex is held for
// map surgery only — never across an RPC, which the lockrpc analyzer
// enforces through the "shard" in the type name.
type recShard struct {
	mu   sync.RWMutex
	recs map[ids.OID]*record
}

// counters is the atomic backing of the exported Counters snapshot:
// per-op increments must not share one mutex when sixteen resolvers
// hit the node in parallel.
type counters struct {
	lookups, descends, inserts, deletes, ptrOps, expiries, drains,
	sessionOpens, sessionRenews, sessionCloses atomic.Int64
}

// Node is one directory subnode. It serves the directory-node protocol
// on its configured address and talks to its parent and children as an
// RPC client. All methods are safe for concurrent use.
type Node struct {
	cfg Config

	shards [recShards]recShard

	sessMu   sync.RWMutex
	sessions map[ids.OID]*session

	drainMu sync.RWMutex
	drained map[string]bool // transport address -> draining

	rndMu sync.Mutex
	rnd   *rand.Rand

	stats counters

	clients *rpc.Clients // parent, children and pointer targets

	journal *journal // nil unless cfg.StateDir is set

	server    *rpc.Server
	stopSweep chan struct{}
	sweepOnce sync.Once
}

// shard returns the record stripe for an object. Object identifiers
// are uniformly random (crypto/rand at mint, sha256 when derived), so
// any byte spreads the stripes evenly; the last avoids correlating
// with Subnode's hash of the whole identifier.
func (n *Node) shard(oid ids.OID) *recShard {
	return &n.shards[int(oid[ids.Size-1])&(recShards-1)]
}

// Start creates a directory subnode and begins serving it.
func Start(net transport.Network, cfg Config) (*Node, error) {
	if cfg.Domain == "" {
		return nil, fmt.Errorf("gls: node needs a domain")
	}
	if len(cfg.Self.Addrs) == 0 {
		return nil, fmt.Errorf("gls: node %q: %w", cfg.Domain, ErrNoAddrs)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.SweepEvery == 0 {
		cfg.SweepEvery = defaultSweepEvery
	}
	n := &Node{
		cfg:      cfg,
		drained:  make(map[string]bool),
		sessions: make(map[ids.OID]*session),
		rnd:      rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := range n.shards {
		n.shards[i].recs = make(map[ids.OID]*record)
	}
	n.clients = rpc.NewClients(net, cfg.Site, clientWrap(cfg.Auth)...)
	// Recover persisted state before serving: no request may observe
	// (or journal over) a half-replayed node.
	if cfg.StateDir != "" {
		j, err := openJournal(n)
		if err != nil {
			return nil, err
		}
		n.journal = j
	}
	opts := []rpc.ServerOption{rpc.WithServerLog(cfg.Logf)}
	if cfg.Auth != nil {
		opts = append(opts, rpc.WithServerWrapper(cfg.Auth.WrapServer))
	}
	srv, err := rpc.Serve(net, cfg.Addr, n.handle, opts...)
	if err != nil {
		if n.journal != nil {
			n.journal.close()
		}
		return nil, err
	}
	n.server = srv
	if n.journal != nil {
		n.journal.startFlusher()
	}
	if cfg.SweepEvery > 0 {
		n.stopSweep = make(chan struct{})
		go n.sweepLoop(n.stopSweep)
	}
	return n, nil
}

// Domain returns the domain this subnode serves.
func (n *Node) Domain() string { return n.cfg.Domain }

// Addr returns the subnode's transport address.
func (n *Node) Addr() string { return n.cfg.Addr }

// Close stops serving, flushes the journal when one is open, and
// releases client connections.
func (n *Node) Close() error {
	if n.stopSweep != nil {
		n.sweepOnce.Do(func() { close(n.stopSweep) })
	}
	err := n.server.Close()
	if n.journal != nil {
		if jerr := n.journal.close(); err == nil {
			err = jerr
		}
	}
	n.clients.Close()
	return err
}

// Stats returns a snapshot of this subnode's operation counters.
func (n *Node) Stats() Counters {
	return Counters{
		Lookups:       n.stats.lookups.Load(),
		Descends:      n.stats.descends.Load(),
		Inserts:       n.stats.inserts.Load(),
		Deletes:       n.stats.deletes.Load(),
		PtrOps:        n.stats.ptrOps.Load(),
		Expiries:      n.stats.expiries.Load(),
		Drains:        n.stats.drains.Load(),
		SessionOpens:  n.stats.sessionOpens.Load(),
		SessionRenews: n.stats.sessionRenews.Load(),
		SessionCloses: n.stats.sessionCloses.Load(),
	}
}

// Records returns the number of objects this subnode has entries for.
func (n *Node) Records() int {
	total := 0
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.RLock()
		total += len(sh.recs)
		sh.mu.RUnlock()
	}
	return total
}

func (n *Node) client(addr string) *rpc.Client { return n.clients.Get(addr) }

func (n *Node) isRoot() bool { return n.cfg.Parent.IsZero() }

// handle dispatches one directory-node protocol request.
func (n *Node) handle(call *rpc.Call) ([]byte, error) {
	if h := mOpSeconds[call.Op]; h != nil {
		start := time.Now()
		defer h.ObserveSince(start)
	}
	switch call.Op {
	case OpLookup:
		return n.handleLookup(call, false)
	case OpLookupDown:
		return n.handleLookup(call, true)
	case OpInsert:
		return n.handleInsert(call)
	case OpDelete:
		return n.handleDelete(call)
	case OpInstallPtr:
		return n.handleInstallPtr(call)
	case OpRemovePtr:
		return n.handleRemovePtr(call)
	case OpDrain:
		return n.handleDrain(call)
	case OpSessionOpen:
		return n.handleSessionOpen(call)
	case OpSessionRenew:
		return n.handleSessionRenew(call)
	case OpSessionClose:
		return n.handleSessionClose(call)
	case OpSessionReattach:
		return n.handleSessionReattach(call)
	case OpStats:
		return n.handleStats()
	case OpDump:
		return n.Snapshot(), nil
	default:
		return nil, fmt.Errorf("gls: unknown op %d", call.Op)
	}
}

// charge records nested cost on a call when one exists; janitor-driven
// operations run without a call to charge.
func charge(call *rpc.Call, d time.Duration) {
	if call != nil {
		call.Charge(d)
	}
}

// authorize enforces role-based admission when the node runs with a
// security configuration. Without one (simulations, benchmarks) every
// caller is admitted.
func (n *Node) authorize(call *rpc.Call, roles ...string) error {
	if n.cfg.Auth == nil {
		return nil
	}
	if !sec.HasRole(call.Peer, roles...) {
		return fmt.Errorf("%w: peer %q may not perform op %d", sec.ErrUnauthorized, call.Peer, call.Op)
	}
	return nil
}

// handleLookup serves both lookup phases. In the up phase a miss
// forwards to the parent; in the down phase the request must terminate
// in this subtree.
func (n *Node) handleLookup(call *rpc.Call, down bool) ([]byte, error) {
	r := wire.NewReader(call.Body)
	oid := r.OID()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if down {
		n.stats.descends.Add(1)
	} else {
		n.stats.lookups.Add(1)
	}

	// Collect the record's live entries under the shard read lock only;
	// the address-wide drain set is consulted after release, and the
	// session drain flag is an atomic — no lock ordering to get wrong,
	// and the stripe is never held across the drain map.
	type candidate struct {
		ca          ContactAddress
		sessDrained bool
	}
	now := n.cfg.Clock()
	sh := n.shard(oid)
	sh.mu.RLock()
	rec := sh.recs[oid]
	var cands []candidate
	var childRefs []Ref
	if rec != nil {
		for _, la := range rec.addrs {
			if la.expired(now) {
				// A lease (or session) its owner stopped renewing: the
				// replica is gone (or cut off); it must not be handed to
				// clients. The sweep janitor reclaims the entry itself.
				continue
			}
			cands = append(cands, candidate{
				ca:          la.ca,
				sessDrained: la.sess != nil && la.sess.drained.Load(),
			})
		}
		for _, ref := range rec.ptrs {
			childRefs = append(childRefs, ref)
		}
	}
	sh.mu.RUnlock()

	var addrs, drainedAddrs []ContactAddress
	if len(cands) > 0 {
		n.drainMu.RLock()
		for _, c := range cands {
			if c.sessDrained || n.drained[c.ca.Address] {
				drainedAddrs = append(drainedAddrs, c.ca)
			} else {
				addrs = append(addrs, c.ca)
			}
		}
		n.drainMu.RUnlock()
	}

	// Healthy contact addresses stored here end the search immediately;
	// a local drained set is only the fallback of last resort.
	if len(addrs) > 0 {
		return EncodeLookupResult(addrs, nil), nil
	}

	// Forwarding pointers send the search down into a child subtree,
	// starting with a random one when there are several (§3.5). A
	// subtree whose entries all expired, died or drained does not end
	// the search: the remaining children are tried, and in the up
	// phase it finally continues toward the root — neither a stale
	// pointer chain (sweep-driven teardown pending) nor a draining
	// replica may hide replicas that are healthy elsewhere in the
	// tree. Drained addresses encountered along the way are carried as
	// the fallback.
	if len(childRefs) > 0 {
		if len(childRefs) > 1 {
			n.rndMu.Lock()
			n.rnd.Shuffle(len(childRefs), func(i, j int) {
				childRefs[i], childRefs[j] = childRefs[j], childRefs[i]
			})
			n.rndMu.Unlock()
		}
		var descendErr error
		for _, ref := range childRefs {
			resp, cost, err := n.client(ref.Route(oid)).Call(OpLookupDown, encodeOID(oid))
			charge(call, cost)
			if err != nil {
				if descendErr == nil {
					descendErr = fmt.Errorf("gls: %s: descend failed: %w", n.cfg.Domain, err)
				}
				continue
			}
			healthy, drained, err := DecodeLookupResult(resp)
			if err != nil {
				continue
			}
			if len(healthy) > 0 {
				return resp, nil
			}
			drainedAddrs = append(drainedAddrs, drained...)
		}
		if down && descendErr != nil && len(drainedAddrs) == 0 {
			return nil, descendErr
		}
	}

	if !down && !n.isRoot() {
		// Up phase: the rest of the tree may hold healthy replicas;
		// only settle for a drained set after the root came up empty.
		resp, cost, err := n.client(n.cfg.Parent.Route(oid)).Call(OpLookup, encodeOID(oid))
		charge(call, cost)
		if err != nil {
			if len(drainedAddrs) > 0 {
				return EncodeLookupResult(nil, drainedAddrs), nil
			}
			return nil, fmt.Errorf("gls: %s: forward to parent failed: %w", n.cfg.Domain, err)
		}
		healthy, drained, derr := DecodeLookupResult(resp)
		if derr != nil {
			return nil, derr
		}
		if len(healthy) > 0 {
			return resp, nil
		}
		drainedAddrs = append(drainedAddrs, drained...)
	}

	// Nothing healthy remains reachable from here: report the drained
	// fallback (a degraded replica beats ErrNotFound), or a miss.
	return EncodeLookupResult(nil, dedupAddrs(drainedAddrs)), nil
}

// dedupAddrs drops duplicate contact addresses, preserving order; a
// drained set can pick up the same address from several search paths.
func dedupAddrs(addrs []ContactAddress) []ContactAddress {
	if len(addrs) < 2 {
		return addrs
	}
	seen := make(map[ContactAddress]bool, len(addrs))
	out := addrs[:0]
	for _, ca := range addrs {
		if !seen[ca] {
			seen[ca] = true
			out = append(out, ca)
		}
	}
	return out
}

// lookupSession resolves a live session or reports ErrUnknownSession.
func (n *Node) lookupSession(sid ids.OID) (*session, error) {
	n.sessMu.RLock()
	sess := n.sessions[sid]
	n.sessMu.RUnlock()
	if sess == nil || sess.closed.Load() {
		return nil, fmt.Errorf("%w: %s at %s", ErrUnknownSession, sid.Short(), n.cfg.Domain)
	}
	return sess, nil
}

// attachAddr adds ca to rec, or renews it in place — a re-registration
// is a lease renewal, and may also move the entry between liveness
// contracts (attach it to a session, or upgrade it to permanent with
// ttl 0 and no session). The caller holds the record's shard lock.
func attachAddr(rec *record, ca ContactAddress, expires time.Time, sess *session) {
	for i, have := range rec.addrs {
		if have.ca == ca {
			rec.addrs[i].expires = expires
			if old := rec.addrs[i].sess; old != sess {
				if old != nil {
					old.attached.Add(-1)
				}
				if sess != nil {
					sess.attached.Add(1)
				}
				rec.addrs[i].sess = sess
			}
			return
		}
	}
	rec.addrs = append(rec.addrs, leasedAddr{ca: ca, expires: expires, sess: sess})
	if sess != nil {
		sess.attached.Add(1)
	}
}

// handleInsert registers a contact address at this node — attached to a
// registration session when the request names one, as a per-entry lease
// when it carries a TTL (renewed by re-inserting), permanent otherwise —
// and installs the chain of forwarding pointers up to the root. The
// response carries the object identifier, which the service allocates
// when the request's is nil.
func (n *Node) handleInsert(call *rpc.Call) ([]byte, error) {
	if err := n.authorize(call, sec.RoleGOS, sec.RoleAdmin, sec.RoleGLS, sec.RoleHTTPD); err != nil {
		return nil, err
	}
	r := wire.NewReader(call.Body)
	oid := r.OID()
	ca := decodeContactAddress(r)
	ttlSecs := r.Uint32()
	sid := r.OID()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if oid.IsNil() {
		oid = ids.New()
	}
	n.stats.inserts.Add(1)

	var expires time.Time
	if ttlSecs > 0 {
		expires = n.cfg.Clock().Add(time.Duration(ttlSecs) * time.Second)
	}
	var sess *session
	if !sid.IsNil() {
		// Session attach: liveness (and drain) follow the session, so the
		// request's TTL is ignored. An unknown session means this node
		// lost it (restart, age-out); the owner must reopen before
		// attaching, or the entry would never expire with its server.
		var err error
		if sess, err = n.lookupSession(sid); err != nil {
			return nil, err
		}
		expires = time.Time{}
	}
	sh := n.shard(oid)
	sh.mu.Lock()
	rec := sh.recs[oid]
	wasEmpty := rec == nil
	if rec == nil {
		rec = &record{}
		sh.recs[oid] = rec
	}
	attachAddr(rec, ca, expires, sess)
	sh.mu.Unlock()
	n.journalInsert(oid, ca, ttlSecs, sid)

	// A pre-existing record (addresses or pointers) implies the chain
	// of forwarding pointers above this node is already installed, so
	// only the first entry for an object pays the climb to the root.
	if wasEmpty {
		if err := n.propagateInstall(call, oid); err != nil {
			return nil, err
		}
	}
	return oid.Bytes(), nil
}

// propagateInstall asks the parent to install a forwarding pointer to
// this node. The parent continues upward until it finds the pointer
// already present (the chain above is then complete) or reaches the root.
func (n *Node) propagateInstall(call *rpc.Call, oid ids.OID) error {
	if n.isRoot() {
		return nil
	}
	w := wire.NewWriter(64)
	w.OID(oid)
	w.Str(n.cfg.Domain)
	n.cfg.Self.encode(w)
	_, cost, err := n.client(n.cfg.Parent.Route(oid)).Call(OpInstallPtr, w.Bytes())
	charge(call, cost)
	if err != nil {
		return fmt.Errorf("gls: %s: install pointer at parent: %w", n.cfg.Domain, err)
	}
	return nil
}

func (n *Node) handleInstallPtr(call *rpc.Call) ([]byte, error) {
	if err := n.authorize(call, sec.RoleGLS); err != nil {
		return nil, err
	}
	r := wire.NewReader(call.Body)
	oid := r.OID()
	child := r.Str()
	ref := decodeRef(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	n.stats.ptrOps.Add(1)

	sh := n.shard(oid)
	sh.mu.Lock()
	rec := sh.recs[oid]
	if rec == nil {
		rec = &record{}
		sh.recs[oid] = rec
	}
	if rec.ptrs == nil {
		rec.ptrs = make(map[string]Ref)
	}
	_, existed := rec.ptrs[child]
	rec.ptrs[child] = ref
	sh.mu.Unlock()
	n.journalInstallPtr(oid, child, ref)

	// An existing pointer implies the chain above is already installed.
	if existed {
		return nil, nil
	}
	return nil, n.propagateInstall(call, oid)
}

// handleDelete removes one contact address; when the record empties, the
// pointer chain above is torn down.
func (n *Node) handleDelete(call *rpc.Call) ([]byte, error) {
	if err := n.authorize(call, sec.RoleGOS, sec.RoleAdmin, sec.RoleGLS, sec.RoleHTTPD); err != nil {
		return nil, err
	}
	r := wire.NewReader(call.Body)
	oid := r.OID()
	addr := r.Str()
	if err := r.Done(); err != nil {
		return nil, err
	}
	n.stats.deletes.Add(1)

	sh := n.shard(oid)
	sh.mu.Lock()
	rec := sh.recs[oid]
	removedAll := false
	if rec != nil {
		kept := rec.addrs[:0]
		for _, la := range rec.addrs {
			if la.ca.Address != addr {
				kept = append(kept, la)
			} else if la.sess != nil {
				la.sess.attached.Add(-1)
			}
		}
		rec.addrs = kept
		if rec.empty() {
			delete(sh.recs, oid)
			removedAll = true
		}
	}
	sh.mu.Unlock()
	n.journalDelete(oid, addr)

	if removedAll {
		return nil, n.propagateRemove(call, oid)
	}
	return nil, nil
}

func (n *Node) propagateRemove(call *rpc.Call, oid ids.OID) error {
	if n.isRoot() {
		return nil
	}
	w := wire.NewWriter(64)
	w.OID(oid)
	w.Str(n.cfg.Domain)
	_, cost, err := n.client(n.cfg.Parent.Route(oid)).Call(OpRemovePtr, w.Bytes())
	charge(call, cost)
	if err != nil {
		return fmt.Errorf("gls: %s: remove pointer at parent: %w", n.cfg.Domain, err)
	}
	return nil
}

func (n *Node) handleRemovePtr(call *rpc.Call) ([]byte, error) {
	if err := n.authorize(call, sec.RoleGLS); err != nil {
		return nil, err
	}
	r := wire.NewReader(call.Body)
	oid := r.OID()
	child := r.Str()
	if err := r.Done(); err != nil {
		return nil, err
	}
	n.stats.ptrOps.Add(1)

	sh := n.shard(oid)
	sh.mu.Lock()
	rec := sh.recs[oid]
	nowEmpty := false
	if rec != nil && rec.ptrs != nil {
		delete(rec.ptrs, child)
		if rec.empty() {
			delete(sh.recs, oid)
			nowEmpty = true
		}
	}
	sh.mu.Unlock()
	n.journalRemovePtr(oid, child)

	if nowEmpty {
		return nil, n.propagateRemove(call, oid)
	}
	return nil, nil
}

// applyDrain flips the node-local, address-wide draining state and
// mirrors it onto every session registered from that address.
func (n *Node) applyDrain(addr string, draining bool) {
	n.drainMu.Lock()
	if draining {
		n.drained[addr] = true
	} else {
		delete(n.drained, addr)
	}
	n.drainMu.Unlock()
	n.sessMu.RLock()
	for _, sess := range n.sessions {
		if a, _ := sess.fields(); a == addr {
			sess.drained.Store(draining)
		}
	}
	n.sessMu.RUnlock()
}

// drainState reports the current address-wide draining flag.
func (n *Node) drainState(addr string) bool {
	n.drainMu.RLock()
	defer n.drainMu.RUnlock()
	return n.drained[addr]
}

// handleDrain marks or clears the draining state of one transport
// address — the standalone op, kept as the compatibility path for
// sessionless registrants; servers with a registration session
// piggyback the same bit on OpSessionRenew instead. Draining is
// node-local and address-wide: every record whose contact addresses
// live at that address stops returning them while alternatives exist.
// Registrations (and their leases) are untouched, so undraining
// restores service instantly — the point of drain over delete. When
// the address belongs to a registration session the flag is recorded
// on the session too, so it rides the session through
// snapshot/restore instead of evaporating on a node restart.
func (n *Node) handleDrain(call *rpc.Call) ([]byte, error) {
	if err := n.authorize(call, sec.RoleGOS, sec.RoleAdmin, sec.RoleGLS, sec.RoleHTTPD); err != nil {
		return nil, err
	}
	r := wire.NewReader(call.Body)
	addr := r.Str()
	draining := r.Bool()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if addr == "" {
		return nil, fmt.Errorf("gls: drain without a transport address")
	}
	n.stats.drains.Add(1)
	n.applyDrain(addr, draining)
	n.journalDrain(addr, draining)
	return nil, nil
}

// applySessionOpen creates or refreshes a session — shared by the
// open and reattach handlers and by journal replay.
func (n *Node) applySessionOpen(sid ids.OID, addr string, ttl time.Duration, now time.Time) *session {
	n.sessMu.Lock()
	sess := n.sessions[sid]
	if sess == nil {
		sess = &session{id: sid}
		n.sessions[sid] = sess
	}
	n.sessMu.Unlock()
	sess.mu.Lock()
	sess.addr = addr
	sess.ttl = ttl
	sess.mu.Unlock()
	sess.expiresNano.Store(now.Add(ttl).UnixNano())
	sess.closed.Store(false)
	// A fresh session inherits the address-wide drain state: a server
	// that drained itself, crashed and reopened is still draining until
	// it says otherwise.
	sess.drained.Store(n.drainState(addr))
	return sess
}

// handleSessionOpen creates (or refreshes) a registration session. The
// operation is idempotent: reopening an existing session resets its
// lease and transport address, which is exactly what a server does
// after a directory-node restart.
func (n *Node) handleSessionOpen(call *rpc.Call) ([]byte, error) {
	if err := n.authorize(call, sec.RoleGOS, sec.RoleAdmin, sec.RoleGLS, sec.RoleHTTPD); err != nil {
		return nil, err
	}
	r := wire.NewReader(call.Body)
	sid := r.OID()
	addr := r.Str()
	ttlSecs := r.Uint32()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if sid.IsNil() || addr == "" || ttlSecs == 0 {
		return nil, fmt.Errorf("gls: session open needs an identifier, an address and a TTL")
	}
	n.stats.sessionOpens.Add(1)
	mSessionsOpened.Inc()
	n.applySessionOpen(sid, addr, time.Duration(ttlSecs)*time.Second, n.cfg.Clock())
	n.journalSessionOpen(sid, addr, ttlSecs)
	return nil, nil
}

// handleSessionRenew extends a session's lease — the one-round-trip
// heartbeat covering every entry attached to it. The response reports
// whether the session is known here and how many entries ride it, so
// the owner can detect a node that rolled back to a snapshot older
// than some attaches and repair it. Renewing an expired-but-unswept
// session revives it (and with it every attached entry), while an
// unknown one tells the owner to reopen and re-attach.
//
// The request may carry an optional drain tail (two booleans:
// presence, then the desired state) — the batched replacement for the
// OpDrain fan-out: a server flips its drain bit on the heartbeat it
// was going to send anyway, and the node applies it address-wide
// exactly as OpDrain would.
func (n *Node) handleSessionRenew(call *rpc.Call) ([]byte, error) {
	if err := n.authorize(call, sec.RoleGOS, sec.RoleAdmin, sec.RoleGLS, sec.RoleHTTPD); err != nil {
		return nil, err
	}
	r := wire.NewReader(call.Body)
	sid := r.OID()
	ttlSecs := r.Uint32()
	hasDrain, drain := false, false
	if r.Remaining() > 0 {
		hasDrain = r.Bool()
		drain = r.Bool()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	n.stats.sessionRenews.Add(1)
	now := n.cfg.Clock()
	n.sessMu.RLock()
	sess := n.sessions[sid]
	n.sessMu.RUnlock()
	known := sess != nil && !sess.closed.Load()
	attached := 0
	if known {
		sess.mu.Lock()
		if ttlSecs > 0 {
			sess.ttl = time.Duration(ttlSecs) * time.Second
		}
		ttl := sess.ttl
		addr := sess.addr
		sess.mu.Unlock()
		sess.expiresNano.Store(now.Add(ttl).UnixNano())
		attached = int(sess.attached.Load())
		if hasDrain && (sess.drained.Load() != drain || n.drainState(addr) != drain) {
			n.stats.drains.Add(1)
			n.applyDrain(addr, drain)
			n.journalDrain(addr, drain)
		}
		n.journalSessionRenew(sid, ttlSecs)
	}
	w := wire.NewWriter(8)
	w.Bool(known)
	w.Uint32(uint32(attached))
	return w.Bytes(), nil
}

// handleSessionClose ends a session now: every attached entry expires
// with it (lookups filter them immediately; the sweep reclaims the
// records and tears down their pointer chains).
func (n *Node) handleSessionClose(call *rpc.Call) ([]byte, error) {
	if err := n.authorize(call, sec.RoleGOS, sec.RoleAdmin, sec.RoleGLS, sec.RoleHTTPD); err != nil {
		return nil, err
	}
	r := wire.NewReader(call.Body)
	sid := r.OID()
	if err := r.Done(); err != nil {
		return nil, err
	}
	n.stats.sessionCloses.Add(1)
	mSessionsClosed.Inc()
	n.sessMu.Lock()
	if sess := n.sessions[sid]; sess != nil {
		// Entries keep their pointer to the struct; marking it closed
		// expires them all at once, wherever they are referenced.
		sess.closed.Store(true)
		delete(n.sessions, sid)
	}
	n.sessMu.Unlock()
	n.journalSessionClose(sid)
	return nil, nil
}

// handleSessionReattach reopens a session and re-attaches a batch of
// entries in one round trip — the repair path after this subnode lost
// the session (restart without a snapshot, or age-out behind a
// partition), and the bulk-registration path for servers bringing a
// large replica population online. Semantically it is one
// OpSessionOpen followed by one OpInsert per entry, collapsed into a
// single message so a partition-heal does not cost a storm of RPCs
// proportional to the server's replica count. Like OpSessionRenew it
// accepts an optional drain tail, so a draining server's repair
// traffic re-establishes the drain too.
func (n *Node) handleSessionReattach(call *rpc.Call) ([]byte, error) {
	if err := n.authorize(call, sec.RoleGOS, sec.RoleAdmin, sec.RoleGLS, sec.RoleHTTPD); err != nil {
		return nil, err
	}
	r := wire.NewReader(call.Body)
	sid := r.OID()
	addr := r.Str()
	ttlSecs := r.Uint32()
	cnt := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	entries := make([]reattachEntry, 0, cnt)
	for i := 0; i < cnt; i++ {
		entries = append(entries, reattachEntry{oid: r.OID(), ca: decodeContactAddress(r)})
	}
	hasDrain, drain := false, false
	if r.Remaining() > 0 {
		hasDrain = r.Bool()
		drain = r.Bool()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if sid.IsNil() || addr == "" || ttlSecs == 0 {
		return nil, fmt.Errorf("gls: session reattach needs an identifier, an address and a TTL")
	}
	n.stats.sessionOpens.Add(1)
	n.stats.inserts.Add(int64(len(entries)))
	mSessionsOpened.Inc()
	now := n.cfg.Clock()
	sess := n.applySessionOpen(sid, addr, time.Duration(ttlSecs)*time.Second, now)
	if hasDrain && n.drainState(addr) != drain {
		n.stats.drains.Add(1)
		n.applyDrain(addr, drain)
		n.journalDrain(addr, drain)
	}
	// Attach every entry, remembering which objects had no record here:
	// only those pay the pointer-chain climb. Entries hash across the
	// record stripes, so each attach holds only its own stripe.
	fresh := n.attachBatch(entries, sess)
	n.journalReattach(sid, addr, ttlSecs, entries)
	for _, oid := range fresh {
		if err := n.propagateInstall(call, oid); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// reattachEntry is one (object, contact address) pair of a batched
// session reattach.
type reattachEntry struct {
	oid ids.OID
	ca  ContactAddress
}

// attachBatch attaches entries to sess, returning the objects that had
// no record before (their pointer chains need installing).
func (n *Node) attachBatch(entries []reattachEntry, sess *session) []ids.OID {
	var fresh []ids.OID
	for _, e := range entries {
		sh := n.shard(e.oid)
		sh.mu.Lock()
		rec := sh.recs[e.oid]
		if rec == nil {
			rec = &record{}
			sh.recs[e.oid] = rec
			fresh = append(fresh, e.oid)
		}
		attachAddr(rec, e.ca, time.Time{}, sess)
		sh.mu.Unlock()
	}
	return fresh
}

// Sessions returns the number of live registration sessions at this
// subnode; tests and diagnostics read it.
func (n *Node) Sessions() int {
	n.sessMu.RLock()
	defer n.sessMu.RUnlock()
	return len(n.sessions)
}

// Draining reports whether an address is currently drained at this
// subnode; tests and diagnostics read it.
func (n *Node) Draining(addr string) bool {
	return n.drainState(addr)
}

// sweepLoop is the lease janitor: it visits one record shard per tick,
// recShards ticks per SweepEvery, so every shard is swept once per
// SweepEvery but no sweep ever write-locks more than one stripe — a
// full-table lock freeze is exactly what striping exists to avoid.
// Sessions are reaped once per full rotation.
func (n *Node) sweepLoop(stop <-chan struct{}) {
	step := n.cfg.SweepEvery / recShards
	if step <= 0 {
		step = time.Millisecond
	}
	ticker := time.NewTicker(step)
	defer ticker.Stop()
	si := 0
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			n.sweepShard(si, n.cfg.Clock())
			si = (si + 1) % recShards
			if si == 0 {
				n.reapSessions(n.cfg.Clock())
			}
		}
	}
}

// sweepShard removes aged-out leases from one record stripe and tears
// down the pointer chains of records it emptied. Expiries need no
// journal entries: a replayed lease re-expires against the restored
// clock on its own.
func (n *Node) sweepShard(si int, now time.Time) int {
	sh := &n.shards[si]
	var emptied []ids.OID
	expired := 0
	sh.mu.Lock()
	for oid, rec := range sh.recs {
		kept := rec.addrs[:0]
		for _, la := range rec.addrs {
			if la.expired(now) {
				expired++
				if la.sess != nil {
					la.sess.attached.Add(-1)
				}
			} else {
				kept = append(kept, la)
			}
		}
		rec.addrs = kept
		if rec.empty() {
			delete(sh.recs, oid)
			emptied = append(emptied, oid)
		}
	}
	sh.mu.Unlock()
	if expired > 0 {
		n.stats.expiries.Add(int64(expired))
	}
	for _, oid := range emptied {
		if err := n.propagateRemove(nil, oid); err != nil {
			n.cfg.Logf("gls: %s: tear down pointers for expired %s: %v", n.cfg.Domain, oid.Short(), err)
			continue
		}
		// A renewal racing the teardown can re-create the record between
		// the locked delete above and the propagateRemove: its own
		// pointer install then loses to our removal, and — since later
		// renewals find the record non-empty — would never be repeated.
		// Re-check and reinstall, so the record converges to findable.
		sh.mu.RLock()
		revived := sh.recs[oid] != nil
		sh.mu.RUnlock()
		if revived {
			if err := n.propagateInstall(nil, oid); err != nil {
				n.cfg.Logf("gls: %s: reinstall pointers for revived %s: %v", n.cfg.Domain, oid.Short(), err)
			}
		}
	}
	return expired
}

// reapSessions deletes sessions whose lease ran out; their entries
// were (or will be) reclaimed by the shard sweeps, and a server that
// comes back later learns from the unknown-session renewal response
// that it must re-attach.
func (n *Node) reapSessions(now time.Time) {
	n.sessMu.Lock()
	for sid, sess := range n.sessions {
		if sess.expired(now) {
			delete(n.sessions, sid)
			mSessionsExpired.Inc()
		}
	}
	n.sessMu.Unlock()
}

// SweepExpired sweeps every shard (and reaps expired sessions) now and
// returns how many contact addresses were reclaimed. The janitor
// covers the same ground incrementally; tests call this directly.
func (n *Node) SweepExpired() int {
	now := n.cfg.Clock()
	total := 0
	for i := range n.shards {
		total += n.sweepShard(i, now)
	}
	n.reapSessions(now)
	return total
}

func (n *Node) handleStats() ([]byte, error) {
	w := wire.NewWriter(64)
	n.Stats().encode(w)
	return w.Bytes(), nil
}

func encodeOID(oid ids.OID) []byte {
	w := wire.NewWriter(ids.Size)
	w.OID(oid)
	return w.Bytes()
}
