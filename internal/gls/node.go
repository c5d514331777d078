package gls

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gdn/internal/ids"
	"gdn/internal/obs"
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
	// StateDir, when non-empty, makes the node's state durable: it
	// loads <StateDir>/state.log at start and writes every changed
	// record and session there once a second (see
	// state.go). The second since the last flush is the crash-loss
	// window, and session owners repair it on their next renewal.
	// Empty keeps the state in memory only.
	StateDir string
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// defaultSweepEvery is the lease-janitor interval when the config does
// not choose one.
const defaultSweepEvery = 5 * time.Second

// leasedAddr is one registered contact address and the session it
// rides: expiry and drain follow the session.
type leasedAddr struct {
	ca   ContactAddress
	sess *session
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
	mu    sync.RWMutex
	recs  map[ids.OID]*record
	dirty map[ids.OID]struct{} // records changed since the last flush
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

	sessMu    sync.RWMutex
	sessions  map[ids.OID]*session
	sessDirty map[ids.OID]struct{} // sessions changed since the last flush

	rndMu sync.Mutex
	rnd   *rand.Rand

	stats counters

	clients *rpc.Clients // parent, children and pointer targets

	state *persister // nil unless cfg.StateDir is set

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
		sessions: make(map[ids.OID]*session),
		rnd:      rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := range n.shards {
		n.shards[i].recs = make(map[ids.OID]*record)
	}
	n.clients = rpc.NewClients(net, cfg.Site, clientWrap(cfg.Auth)...)
	// Load persisted state before serving: no request may observe (or
	// overwrite) a half-loaded node.
	if cfg.StateDir != "" {
		if err := openState(n); err != nil {
			return nil, err
		}
	}
	opts := []rpc.ServerOption{rpc.WithServerLog(cfg.Logf)}
	if cfg.Auth != nil {
		opts = append(opts, rpc.WithServerWrapper(cfg.Auth.WrapServer))
	}
	srv, err := rpc.Serve(net, cfg.Addr, n.handle, opts...)
	if err != nil {
		if n.state != nil {
			n.closeState()
		}
		return nil, err
	}
	n.server = srv
	if n.state != nil {
		n.startFlusher()
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

// Close stops serving, flushes the state table when one is open, and
// releases client connections.
func (n *Node) Close() error {
	if n.stopSweep != nil {
		n.sweepOnce.Do(func() { close(n.stopSweep) })
	}
	err := n.server.Close()
	if n.state != nil {
		if serr := n.closeState(); err == nil {
			err = serr
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

// Roles admitted to the directory-node protocol when the node runs with
// a security configuration (paper §6.1, requirement 2): lookups from
// anyone, pointer operations only from fellow directory nodes, and
// every other op from object servers and administrators.
var (
	serverRoles = []string{sec.RoleGOS, sec.RoleAdmin, sec.RoleGLS, sec.RoleHTTPD}
	nodeRoles   = []string{sec.RoleGLS}
)

// handle admits and dispatches one directory-node protocol request.
func (n *Node) handle(call *rpc.Call) ([]byte, error) {
	if h := mOpSeconds[call.Op]; h != nil {
		start := time.Now()
		defer h.ObserveSince(start)
	}
	var serve func(*rpc.Call) ([]byte, error)
	roles := serverRoles
	switch call.Op {
	case OpLookup, OpLookupDown:
		return n.handleLookup(call, call.Op == OpLookupDown)
	case OpInsert:
		serve = n.handleInsert
	case OpDelete:
		serve = n.handleDelete
	case OpInstallPtr:
		serve, roles = n.handleInstallPtr, nodeRoles
	case OpRemovePtr:
		serve, roles = n.handleRemovePtr, nodeRoles
	case OpSessionOpen:
		serve = n.handleSessionOpen
	case OpSessionRenew:
		serve = n.handleSessionRenew
	case OpSessionClose:
		serve = n.handleSessionClose
	case OpSessionReattach:
		serve = n.handleSessionReattach
	default:
		return nil, fmt.Errorf("gls: unknown op %d", call.Op)
	}
	if n.cfg.Auth != nil && !sec.HasRole(call.Peer, roles...) {
		return nil, fmt.Errorf("%w: peer %q may not perform op %d", sec.ErrUnauthorized, call.Peer, call.Op)
	}
	return serve(call)
}

// charge records nested cost on a call when one exists; janitor-driven
// operations run without a call to charge.
func charge(call *rpc.Call, d time.Duration) {
	if call != nil {
		call.Charge(d)
	}
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

	// Classify the record's live entries under the shard read lock; a
	// session's expiry and drain flag are atomics.
	now := n.cfg.Clock()
	sh := n.shard(oid)
	sh.mu.RLock()
	rec := sh.recs[oid]
	var addrs, drainedAddrs []ContactAddress
	var childRefs []Ref
	if rec != nil {
		for _, la := range rec.addrs {
			switch {
			case la.sess.expired(now):
				// A session its owner stopped renewing: the replica is
				// gone (or cut off); it must not be handed to clients.
				// The sweep janitor reclaims the entry itself.
			case la.sess.drained.Load():
				drainedAddrs = append(drainedAddrs, la.ca)
			default:
				addrs = append(addrs, la.ca)
			}
		}
		for _, ref := range rec.ptrs {
			childRefs = append(childRefs, ref)
		}
	}
	sh.mu.RUnlock()

	// Healthy contact addresses stored here end the search immediately;
	// a local drained set is only the fallback of last resort.
	if len(addrs) > 0 {
		return EncodeLookupResult(addrs, nil), nil
	}

	// Forwarding pointers send the search down into a child subtree,
	// starting with a random one when there are several (§3.5), drawn
	// from address order so that Config.Seed replays it. A subtree
	// whose entries all expired, died or drained does not end the
	// search: the remaining children are tried, and in the up phase it
	// finally continues toward the root — neither a stale pointer chain
	// (sweep-driven teardown pending) nor a draining replica may hide
	// replicas that are healthy elsewhere in the tree. Drained
	// addresses encountered along the way are carried as the fallback.
	if len(childRefs) > 0 {
		if len(childRefs) > 1 {
			slices.SortFunc(childRefs, func(a, b Ref) int { return strings.Compare(a.Addrs[0], b.Addrs[0]) })
			n.rndMu.Lock()
			n.rnd.Shuffle(len(childRefs), func(i, j int) {
				childRefs[i], childRefs[j] = childRefs[j], childRefs[i]
			})
			n.rndMu.Unlock()
		}
		var descendErr error
		for _, ref := range childRefs {
			resp, cost, err := n.client(ref.Route(oid)).Call(obs.SpanContext{}, OpLookupDown, encodeOID(oid))
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
		resp, cost, err := n.client(n.cfg.Parent.Route(oid)).Call(obs.SpanContext{}, OpLookup, encodeOID(oid))
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

// attach is the one way records and entries come into being. It gets
// or creates (fresh) oid's record in sh and, for a non-nil sess,
// attaches ca riding sess, or moves the entry for ca onto sess: a
// restarted server's new session takes over the entries of the one
// that died. It marks a changed record dirty. The caller holds sh.mu
// and installs the pointer chain of a fresh record.
func (n *Node) attach(sh *recShard, oid ids.OID, ca ContactAddress, sess *session) (rec *record, fresh bool) {
	rec = sh.recs[oid]
	if fresh = rec == nil; fresh {
		rec = &record{}
		sh.recs[oid] = rec
	}
	if sess == nil {
		return rec, fresh
	}
	i := slices.IndexFunc(rec.addrs, func(la leasedAddr) bool { return la.ca == ca })
	switch {
	case i < 0:
		rec.addrs = append(rec.addrs, leasedAddr{ca: ca, sess: sess})
		sess.digest.Add(entryHash(oid, ca))
	case rec.addrs[i].sess != sess:
		h := entryHash(oid, ca)
		rec.addrs[i].sess.digest.Add(-h)
		sess.digest.Add(h)
		rec.addrs[i].sess = sess
	default:
		return rec, fresh
	}
	n.markRecord(sh, oid)
	return rec, fresh
}

// drop is the one way entries and records go. It removes the entries
// of oid's record rec (nil if absent) that pred selects (nil selects
// none), each out of its session's digest, marks a changed record
// dirty, deletes an empty one and reports it emptied. The caller holds
// sh.mu and tears down the pointer chain of an emptied record.
func (n *Node) drop(sh *recShard, oid ids.OID, rec *record, pred func(ids.OID, leasedAddr) bool) (removed int, emptied bool) {
	if rec == nil {
		return 0, false
	}
	kept := rec.addrs[:0]
	for _, la := range rec.addrs {
		if pred != nil && pred(oid, la) {
			la.sess.digest.Add(-entryHash(oid, la.ca))
		} else {
			kept = append(kept, la)
		}
	}
	if removed = len(rec.addrs) - len(kept); removed > 0 {
		n.markRecord(sh, oid)
	}
	if rec.addrs = kept; rec.empty() {
		delete(sh.recs, oid)
	}
	return removed, rec.empty()
}

// teardown removes the pointer chain above each emptied record. A
// request can create the record again between its locked delete and
// the removal at the parent; that request's install then loses to the
// removal and is never repeated, since later requests find the record
// present. So a record that came back gets its chain installed again.
// teardown logs each failure and returns the first.
func (n *Node) teardown(call *rpc.Call, emptied ...ids.OID) (first error) {
	for _, oid := range emptied {
		err := n.propagateRemove(call, oid)
		sh := n.shard(oid)
		sh.mu.RLock()
		revived := err == nil && sh.recs[oid] != nil
		sh.mu.RUnlock()
		if revived {
			err = n.propagateInstall(call, oid)
		}
		if err != nil {
			n.cfg.Logf("gls: %s: tear down pointers for %s: %v", n.cfg.Domain, oid.Short(), err)
			first = cmp.Or(first, err)
		}
	}
	return first
}

// handleInsert attaches a contact address to the registration session
// the request names and installs the chain of forwarding pointers up to
// the root. The response carries the object identifier, which the
// service allocates when the request's is nil.
func (n *Node) handleInsert(call *rpc.Call) ([]byte, error) {
	r := wire.NewReader(call.Body)
	oid := r.OID()
	ca := decodeContactAddress(r)
	sid := r.OID()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if oid.IsNil() {
		oid = ids.New()
	}
	n.stats.inserts.Add(1)

	// An unknown (or nil) session means this node lost it (restart,
	// age-out) or never had one; the owner must reopen before
	// attaching, or the entry would never expire with its server.
	sess, err := n.lookupSession(sid)
	if err != nil {
		return nil, err
	}
	sh := n.shard(oid)
	sh.mu.Lock()
	_, fresh := n.attach(sh, oid, ca, sess)
	sh.mu.Unlock()

	// A pre-existing record (addresses or pointers) implies the chain
	// of forwarding pointers above this node is already installed, so
	// only the first entry for an object pays the climb to the root.
	if fresh {
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
	_, cost, err := n.client(n.cfg.Parent.Route(oid)).Call(obs.SpanContext{}, OpInstallPtr, w.Bytes())
	charge(call, cost)
	if err != nil {
		return fmt.Errorf("gls: %s: install pointer at parent: %w", n.cfg.Domain, err)
	}
	return nil
}

func (n *Node) handleInstallPtr(call *rpc.Call) ([]byte, error) {
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
	rec, _ := n.attach(sh, oid, ContactAddress{}, nil)
	if rec.ptrs == nil {
		rec.ptrs = make(map[string]Ref)
	}
	_, existed := rec.ptrs[child]
	rec.ptrs[child] = ref
	n.markRecord(sh, oid)
	sh.mu.Unlock()

	// An existing pointer implies the chain above is already installed.
	if existed {
		return nil, nil
	}
	return nil, n.propagateInstall(call, oid)
}

// handleDelete removes one contact address; when the record empties, the
// pointer chain above is torn down.
func (n *Node) handleDelete(call *rpc.Call) ([]byte, error) {
	r := wire.NewReader(call.Body)
	oid := r.OID()
	addr := r.Str()
	if err := r.Done(); err != nil {
		return nil, err
	}
	n.stats.deletes.Add(1)

	sh := n.shard(oid)
	sh.mu.Lock()
	_, emptied := n.drop(sh, oid, sh.recs[oid], func(_ ids.OID, la leasedAddr) bool { return la.ca.Address == addr })
	sh.mu.Unlock()
	if emptied {
		return nil, n.teardown(call, oid)
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
	_, cost, err := n.client(n.cfg.Parent.Route(oid)).Call(obs.SpanContext{}, OpRemovePtr, w.Bytes())
	charge(call, cost)
	if err != nil {
		return fmt.Errorf("gls: %s: remove pointer at parent: %w", n.cfg.Domain, err)
	}
	return nil
}

func (n *Node) handleRemovePtr(call *rpc.Call) ([]byte, error) {
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
	emptied := false
	if rec != nil && rec.ptrs != nil {
		delete(rec.ptrs, child)
		n.markRecord(sh, oid)
		_, emptied = n.drop(sh, oid, rec, nil)
	}
	sh.mu.Unlock()
	if emptied {
		return nil, n.teardown(call, oid)
	}
	return nil, nil
}

// handleSessionOpen creates (or refreshes) a registration session. The
// operation is idempotent: reopening an existing session resets its
// lease and transport address, which is exactly what a server does
// after a directory-node restart.
func (n *Node) handleSessionOpen(call *rpc.Call) ([]byte, error) {
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
	n.editSession(sid, func(sess *session) bool {
		_, changed := n.openSession(sess, sid, addr, time.Duration(ttlSecs)*time.Second)
		return changed
	})
	return nil, nil
}

// handleSessionRenew extends a session's lease — the one-round-trip
// heartbeat covering every entry attached to it — and sets its drain
// flag from the owner's drain bit: the one drain path. Draining hides
// the session's entries while alternatives exist, and undraining
// restores them at once. The answer says whether the session is known
// here and carries the digest of its entries, so the owner can repair
// any difference from its books.
func (n *Node) handleSessionRenew(call *rpc.Call) ([]byte, error) {
	r := wire.NewReader(call.Body)
	sid := r.OID()
	ttlSecs := r.Uint32()
	drain := r.Bool()
	if err := r.Done(); err != nil {
		return nil, err
	}
	n.stats.sessionRenews.Add(1)
	var digest uint64
	known := false
	n.editSession(sid, func(sess *session) bool {
		if known = sess != nil; !known {
			return false
		}
		digest = sess.digest.Load()
		ttlChanged := n.renewLease(sess, time.Duration(ttlSecs)*time.Second)
		return n.setDrain(sess, drain) || ttlChanged
	})
	w := wire.NewWriter(9)
	w.Bool(known)
	w.Uint64(digest)
	return w.Bytes(), nil
}

// handleSessionClose ends a session now: every attached entry expires
// with it (lookups filter them immediately; the sweep reclaims the
// records and tears down their pointer chains).
func (n *Node) handleSessionClose(call *rpc.Call) ([]byte, error) {
	r := wire.NewReader(call.Body)
	sid := r.OID()
	if err := r.Done(); err != nil {
		return nil, err
	}
	n.stats.sessionCloses.Add(1)
	mSessionsClosed.Inc()
	n.editSession(sid, func(sess *session) bool { return sess != nil && n.endSession(sess) })
	return nil, nil
}

// handleSessionReattach reopens a session, sets its drain flag and
// attaches a batch of entries in one round trip — the repair path of a
// renewal whose answer disagreed with the owner's books, and the
// bulk-registration path for servers bringing a large replica
// population online: one OpSessionOpen and one OpInsert per entry in a
// single message, so a partition heal costs no storm of RPCs. In
// reattachReplace mode it then drops every entry riding the session
// here that the message does not list, through the janitor's path: one
// scan of the record table, paid only on a mismatch.
func (n *Node) handleSessionReattach(call *rpc.Call) ([]byte, error) {
	r := wire.NewReader(call.Body)
	sid := r.OID()
	addr := r.Str()
	ttlSecs := r.Uint32()
	drain := r.Bool()
	mode := r.Uint8()
	cnt := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	entries := make([]reattachEntry, 0, cnt)
	for i := 0; i < cnt; i++ {
		entries = append(entries, reattachEntry{oid: r.OID(), ca: decodeContactAddress(r)})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if sid.IsNil() || addr == "" || ttlSecs == 0 || mode > reattachReplace {
		return nil, fmt.Errorf("gls: session reattach needs an identifier, an address, a TTL and a known mode")
	}
	n.stats.sessionOpens.Add(1)
	n.stats.inserts.Add(int64(len(entries)))
	mSessionsOpened.Inc()
	var sess *session
	n.editSession(sid, func(s *session) bool {
		var changed bool
		sess, changed = n.openSession(s, sid, addr, time.Duration(ttlSecs)*time.Second)
		return n.setDrain(sess, drain) || changed
	})
	// Attach every entry, remembering which objects had no record here:
	// only those pay the pointer-chain climb. Entries hash across the
	// record stripes, so each attach holds only its own stripe.
	fresh := n.attachBatch(entries, sess)
	if mode == reattachReplace {
		listed := make(map[reattachEntry]struct{}, len(entries))
		for _, e := range entries {
			listed[e] = struct{}{}
		}
		unlisted := func(oid ids.OID, la leasedAddr) bool {
			if la.sess != sess {
				return false
			}
			_, ok := listed[reattachEntry{oid: oid, ca: la.ca}]
			return !ok
		}
		dropped := 0
		for i := range n.shards {
			dropped += n.sweepShard(call, i, unlisted)
		}
		n.stats.deletes.Add(int64(dropped))
	}
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
func (n *Node) attachBatch(entries []reattachEntry, sess *session) (fresh []ids.OID) {
	for _, e := range entries {
		sh := n.shard(e.oid)
		sh.mu.Lock()
		if _, created := n.attach(sh, e.oid, e.ca, sess); created {
			fresh = append(fresh, e.oid)
		}
		sh.mu.Unlock()
	}
	return fresh
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
			n.stats.expiries.Add(int64(n.sweepShard(nil, si, expiredAt(n.cfg.Clock()))))
			si = (si + 1) % recShards
			if si == 0 {
				n.reapSessions(n.cfg.Clock())
			}
		}
	}
}

// expiredAt is the janitor's drop predicate: the entry's session ran
// out or was closed by now.
func expiredAt(now time.Time) func(ids.OID, leasedAddr) bool {
	return func(_ ids.OID, la leasedAddr) bool { return la.sess.expired(now) }
}

// sweepShard drops the entries pred selects from one record stripe,
// tears down the pointer chains of the records it emptied, and returns
// how many entries it removed. The janitor drops expired entries; a
// replacing reattach drops the entries of its session that it does not
// list.
func (n *Node) sweepShard(call *rpc.Call, si int, pred func(ids.OID, leasedAddr) bool) int {
	sh := &n.shards[si]
	var emptied []ids.OID
	removed := 0
	sh.mu.Lock()
	for oid, rec := range sh.recs {
		k, gone := n.drop(sh, oid, rec, pred)
		removed += k
		if gone {
			emptied = append(emptied, oid)
		}
	}
	sh.mu.Unlock()
	n.teardown(call, emptied...)
	return removed
}

// SweepExpired sweeps every shard (and reaps expired sessions) now and
// returns how many contact addresses were reclaimed. The janitor
// covers the same ground incrementally; tests call this directly.
func (n *Node) SweepExpired() int {
	now := n.cfg.Clock()
	total := 0
	for i := range n.shards {
		total += n.sweepShard(nil, i, expiredAt(now))
	}
	n.stats.expiries.Add(int64(total))
	n.reapSessions(now)
	return total
}

func encodeOID(oid ids.OID) []byte {
	w := wire.NewWriter(ids.Size)
	w.OID(oid)
	return w.Bytes()
}
