package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/store"
)

// Env is everything a replication subobject needs from its hosting
// address space: the object it serves, local execution, the
// communication endpoint, and the protocol parameters from the
// object's replication scenario.
type Env struct {
	// OID identifies the distributed shared object.
	OID ids.OID
	// Site is the hosting site.
	Site string
	// Clients is the hosting runtime's table of shared peer clients;
	// Dial borrows from it.
	Clients *rpc.Clients
	// Exec executes invocations against the co-resident semantics
	// subobject.
	Exec LocalExec
	// Disp is the listening endpoint; nil for pure client proxies that
	// are not contactable.
	Disp *Dispatcher
	// Auth supplies credentials for dialing peers and checking inbound
	// roles; nil disables security.
	Auth *sec.Config
	// Role is this representative's protocol role ("server", "master",
	// "slave", "peer", ...); "" for proxies.
	Role string
	// Params carries protocol tuning from the replication scenario.
	Params map[string]string
	// Peers holds the contact addresses of the object's other
	// representatives known at construction time (from the GLS during
	// binding, or from the moderator's scenario during creation).
	Peers []gls.ContactAddress
	// Resolve re-runs the location-service lookup that produced Peers.
	// Peer sets call it to discover replicas created after binding and
	// to age out dead ones — proxy-side sets always, and replica-side
	// sets such as the cache protocol's parent set. Nil (a runtime
	// without a resolver) disables re-resolution.
	Resolve func() ([]gls.ContactAddress, time.Duration, error)
	// Clock supplies the time for TTL-based consistency decisions; nil
	// means wall time. Simulations install virtual clocks here.
	Clock func() time.Time
	// Logf receives diagnostics; never nil after registry construction.
	Logf func(string, ...any)
	// Store is the chunk store backing the co-resident semantics' bulk
	// content; replication subobjects serve chunk fetches and bulk-read
	// streams from it and fill it during delta state transfer. Nil when
	// the semantics keeps no chunked content.
	Store *store.Store
}

// Now reads the environment clock.
func (e *Env) Now() time.Time {
	if e.Clock != nil {
		return e.Clock()
	}
	return time.Now()
}

// Param returns a scenario parameter or a default.
func (e *Env) Param(key, def string) string {
	if v, ok := e.Params[key]; ok {
		return v
	}
	return def
}

// Dial returns this object's client for a remote dispatcher, riding
// the runtime's shared connection to it.
func (e *Env) Dial(addr string) *PeerClient {
	return &PeerClient{oid: e.OID, rpc: e.Clients.Get(addr)}
}

// PeersWithRole filters the known contact addresses by protocol role.
func (e *Env) PeersWithRole(role string) []gls.ContactAddress {
	var out []gls.ContactAddress
	for _, ca := range e.Peers {
		if ca.Role == role {
			out = append(out, ca)
		}
	}
	return out
}

// Protocol describes one replication protocol: constructors for the
// proxy side (installed in binding clients) and the replica side
// (installed in object servers and GDN HTTPDs). This pairing is the
// unit a moderator selects in a replication scenario.
type Protocol struct {
	// Name identifies the protocol in contact addresses and scenarios.
	Name string
	// NewProxy builds the client-side replication subobject. env.Peers
	// holds the contact addresses the location service returned.
	NewProxy func(env *Env) (Replication, error)
	// NewReplica builds a hosted replica's replication subobject for
	// env.Role. It must register the object's inbound handler on
	// env.Disp and unregister it on Close.
	NewReplica func(env *Env) (Replication, error)
}

// Registry is the per-address-space implementation repository (§3.4):
// it maps implementation identifiers to semantics constructors and
// protocol names to subobject constructors. Binding loads from it the
// way the paper's runtime loads classes from a local repository —
// by-name indirection without executing foreign code (DESIGN.md §2).
type Registry struct {
	mu     sync.RWMutex
	sems   map[string]func() Semantics
	protos map[string]*Protocol
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		sems:   make(map[string]func() Semantics),
		protos: make(map[string]*Protocol),
	}
}

// RegisterSemantics installs a semantics constructor under an
// implementation identifier such as "pkgobj/1".
func (r *Registry) RegisterSemantics(impl string, f func() Semantics) {
	r.mu.Lock()
	r.sems[impl] = f
	r.mu.Unlock()
}

// RegisterProtocol installs a replication protocol.
func (r *Registry) RegisterProtocol(p *Protocol) {
	r.mu.Lock()
	r.protos[p.Name] = p
	r.mu.Unlock()
}

// NewSemantics instantiates the implementation named impl.
func (r *Registry) NewSemantics(impl string) (Semantics, error) {
	r.mu.RLock()
	f := r.sems[impl]
	r.mu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoImplementation, impl)
	}
	return f(), nil
}

// Protocol returns the registered protocol named name.
func (r *Registry) Protocol(name string) (*Protocol, error) {
	r.mu.RLock()
	p := r.protos[name]
	r.mu.RUnlock()
	if p == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoProtocol, name)
	}
	return p, nil
}

// Protocols lists registered protocol names, sorted; moderator tools
// present this as "the choice of available replication protocols"
// (§6.1).
func (r *Registry) Protocols() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.protos))
	for name := range r.protos {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
