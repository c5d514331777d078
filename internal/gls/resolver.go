package gls

import (
	"fmt"
	"time"

	"gdn/internal/ids"
	"gdn/internal/obs"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/transport"
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
	resp, cost, err := r.client(r.leaf.Route(oid)).Call(obs.SpanContext{}, OpLookup, encodeOID(oid))
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
