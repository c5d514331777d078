package gls

import (
	"fmt"
	"time"

	"gdn/internal/ids"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/transport"
	"gdn/internal/wire"
)

// Resolver is a client of the location service. It is bound to one leaf
// directory node — the node of the domain the client's site belongs to —
// exactly as the paper's run-time system sends look-up requests "to the
// directory node of the leaf domain the client is located in" (§3.5).
// Resolvers are safe for concurrent use.
type Resolver struct {
	leaf    Ref
	auth    *sec.Config
	clients *rpc.Clients
}

// ResolverOption configures a Resolver.
type ResolverOption func(*Resolver)

// WithResolverAuth dials directory nodes through authenticated security
// channels. Object servers registering replicas need this when the tree
// runs with admission control.
func WithResolverAuth(cfg *sec.Config) ResolverOption {
	return func(r *Resolver) { r.auth = cfg }
}

// NewResolver returns a resolver for a client at the given site whose
// leaf domain directory node is leaf.
func NewResolver(net transport.Network, site string, leaf Ref, opts ...ResolverOption) *Resolver {
	r := &Resolver{leaf: leaf}
	for _, o := range opts {
		o(r)
	}
	r.clients = rpc.NewClients(net, site, clientWrap(r.auth)...)
	return r
}

// clientWrap returns the client options that dial through auth's
// security channels, none when auth is nil.
func clientWrap(auth *sec.Config) []rpc.ClientOption {
	if auth == nil {
		return nil
	}
	return []rpc.ClientOption{rpc.WithClientWrapper(auth.WrapClient)}
}

// Close releases pooled connections.
func (r *Resolver) Close() error { return r.clients.Close() }

func (r *Resolver) client(addr string) *rpc.Client { return r.clients.Get(addr) }

// Lookup maps an object identifier to the contact addresses of the
// nearest healthy replicas — falling back to draining ones when the
// whole tree holds nothing healthier, since a degraded replica still
// beats not-found. The returned cost is the virtual network cost of
// the whole lookup path (up the tree, down the pointers, and back).
func (r *Resolver) Lookup(oid ids.OID) ([]ContactAddress, time.Duration, error) {
	start := time.Now()
	defer mResolverLookupSeconds.ObserveSince(start)
	resp, cost, err := r.client(r.leaf.Route(oid)).Call(OpLookup, encodeOID(oid))
	if err != nil {
		return nil, cost, err
	}
	healthy, drained, err := DecodeLookupResult(resp)
	if err != nil {
		return nil, cost, err
	}
	if len(healthy) > 0 {
		return healthy, cost, nil
	}
	if len(drained) > 0 {
		return drained, cost, nil
	}
	return nil, cost, fmt.Errorf("%w: %s", ErrNotFound, oid.Short())
}

// Insert registers a contact address in the client's leaf domain,
// permanently (no lease). A nil oid asks the service to allocate a
// fresh identifier; the identifier actually registered is returned
// either way.
func (r *Resolver) Insert(oid ids.OID, ca ContactAddress) (ids.OID, time.Duration, error) {
	return r.insertAt(r.leaf, oid, ca, 0, ids.Nil)
}

// InsertLease registers a contact address as a lease that ages out of
// lookups after ttl unless renewed by re-inserting — the per-entry
// liveness contract single-replica clients heartbeat under, so a
// crashed owner's entry vanishes from the location service within one
// TTL instead of 502ing clients forever. Servers hosting many replicas
// batch their liveness through a registration session instead
// (OpenSession). A ttl of 0 is a permanent Insert; sub-second TTLs
// round up to one second (the wire carries whole seconds).
func (r *Resolver) InsertLease(oid ids.OID, ca ContactAddress, ttl time.Duration) (ids.OID, time.Duration, error) {
	return r.insertAt(r.leaf, oid, ca, ttl, ids.Nil)
}

// InsertAt registers a contact address at an arbitrary directory node
// instead of the client's leaf. Storing addresses at an intermediate
// node trades lookup locality for cheaper updates on highly mobile
// objects (§3.5); the E2 ablation uses this.
func (r *Resolver) InsertAt(node Ref, oid ids.OID, ca ContactAddress) (ids.OID, time.Duration, error) {
	return r.insertAt(node, oid, ca, 0, ids.Nil)
}

func (r *Resolver) insertAt(node Ref, oid ids.OID, ca ContactAddress, ttl time.Duration, sid ids.OID) (ids.OID, time.Duration, error) {
	if node.IsZero() {
		return ids.Nil, 0, ErrNoAddrs
	}
	// Allocating the identifier client-side keeps subnode routing
	// consistent: the request must reach the subnode that will own the
	// identifier, which cannot be known before the identifier exists.
	if oid.IsNil() {
		oid = ids.New()
	}
	ttlSecs := uint32(0)
	if ttl > 0 {
		ttlSecs = uint32((ttl + time.Second - 1) / time.Second)
	}
	w := wire.NewWriter(96)
	w.OID(oid)
	ca.encode(w)
	w.Uint32(ttlSecs)
	w.OID(sid)
	resp, cost, err := r.client(node.Route(oid)).Call(OpInsert, w.Bytes())
	if err != nil {
		return ids.Nil, cost, err
	}
	got, err := ids.FromBytes(resp)
	if err != nil {
		return ids.Nil, cost, err
	}
	return got, cost, nil
}

// Drain marks (draining=true) or clears (false) the draining state of
// a transport address at every subnode of the client's leaf directory
// node — the node where that address's replicas registered. Drained
// addresses stop appearing in lookups while healthy alternatives
// exist; registrations stay intact, so recovery is one Drain(false)
// away.
//
// This is the compatibility shim for sessionless registrants: it fans
// one OpDrain RPC out to every leaf subnode. Servers holding a
// registration session use ServerSession.Drain instead, which
// piggybacks the bit on the batched renewal heartbeat.
func (r *Resolver) Drain(addr string, draining bool) (time.Duration, error) {
	if r.leaf.IsZero() {
		return 0, ErrNoAddrs
	}
	w := wire.NewWriter(16 + len(addr))
	w.Str(addr)
	w.Bool(draining)
	body := w.Bytes()
	var total time.Duration
	var firstErr error
	// Drain state is per subnode; every subnode of the leaf must hear
	// it, since each owns a slice of the identifier space.
	for _, sub := range r.leaf.Addrs {
		_, cost, err := r.client(sub).Call(OpDrain, body)
		total += cost
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// Delete deregisters the contact address with the given transport
// address from the client's leaf domain.
func (r *Resolver) Delete(oid ids.OID, addr string) (time.Duration, error) {
	return r.DeleteAt(r.leaf, oid, addr)
}

// DeleteAt deregisters from an arbitrary directory node; the counterpart
// of InsertAt.
func (r *Resolver) DeleteAt(node Ref, oid ids.OID, addr string) (time.Duration, error) {
	if node.IsZero() {
		return 0, ErrNoAddrs
	}
	w := wire.NewWriter(64)
	w.OID(oid)
	w.Str(addr)
	_, cost, err := r.client(node.Route(oid)).Call(OpDelete, w.Bytes())
	return cost, err
}

// Stats fetches the operation counters of one subnode.
func (r *Resolver) Stats(addr string) (Counters, error) {
	resp, _, err := r.client(addr).Call(OpStats, nil)
	if err != nil {
		return Counters{}, err
	}
	rd := wire.NewReader(resp)
	c := decodeCounters(rd)
	if err := rd.Done(); err != nil {
		return Counters{}, err
	}
	return c, nil
}
