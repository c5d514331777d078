package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gdn/internal/gls"
	"gdn/internal/gns"
	"gdn/internal/ids"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/store"
	"gdn/internal/transport"
)

// Runtime is the Globe run-time system of one address space: it binds
// clients to distributed shared objects (§3.4) and constructs hosted
// replicas for object servers. One Runtime serves one site.
type Runtime struct {
	site     string
	clients  *rpc.Clients
	resolver *gls.Resolver
	names    *gns.NameService
	registry *Registry
	auth     *sec.Config
	clock    func() time.Time
	logf     func(string, ...any)

	mu  sync.Mutex
	rnd *rand.Rand
}

// RuntimeConfig assembles a Runtime.
type RuntimeConfig struct {
	// Site is the local site identifier.
	Site string
	// Net is the transport network.
	Net transport.Network
	// Resolver reaches the Globe Location Service; required for Bind.
	Resolver *gls.Resolver
	// Names reaches the Globe Name Service; required for BindName only.
	Names *gns.NameService
	// Registry is the local implementation repository.
	Registry *Registry
	// Auth supplies this party's credentials; nil disables security.
	Auth *sec.Config
	// Clock supplies the time to replication subobjects that make
	// TTL-based decisions; nil means wall time. Simulations install
	// virtual clocks here.
	Clock func() time.Time
	// Seed makes contact-address selection reproducible in tests.
	Seed int64
	// Logf receives diagnostics; nil discards them.
	Logf func(string, ...any)
}

// NewRuntime builds a run-time system.
func NewRuntime(cfg RuntimeConfig) *Runtime {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	// Up to four shared connections per peer dispatcher: a single
	// conn's pipeline window saturates under many concurrent bulk
	// streams (each stream occupies an in-flight slot for its whole
	// transfer), and extra conns are dialed lazily only at that point —
	// light peers still use exactly one.
	opts := []rpc.ClientOption{rpc.WithMaxConns(4)}
	if cfg.Auth != nil {
		opts = append(opts, rpc.WithClientWrapper(cfg.Auth.WrapClient))
	}
	return &Runtime{
		site:     cfg.Site,
		clients:  rpc.NewClients(cfg.Net, cfg.Site, opts...),
		resolver: cfg.Resolver,
		names:    cfg.Names,
		registry: cfg.Registry,
		auth:     cfg.Auth,
		clock:    cfg.Clock,
		logf:     cfg.Logf,
		rnd:      rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Close closes the connections the runtime's bindings and hosted
// replicas share. The resolver and name service belong to whoever
// built them.
func (rt *Runtime) Close() error { return rt.clients.Close() }

// Site returns the runtime's site.
func (rt *Runtime) Site() string { return rt.site }

// Registry returns the implementation repository.
func (rt *Runtime) Registry() *Registry { return rt.registry }

// Resolver returns the location-service resolver.
func (rt *Runtime) Resolver() *gls.Resolver { return rt.resolver }

// Names returns the name service, or nil.
func (rt *Runtime) Names() *gns.NameService { return rt.names }

// Bind installs a client proxy for the object in this address space:
// the location service maps the OID to contact addresses, the
// implementation and protocol they name are loaded from the local
// registry, and the composed representative is returned (§3.4). The
// returned cost covers the location lookup; subsequent invocations
// report their own costs.
func (rt *Runtime) Bind(oid ids.OID) (*LR, time.Duration, error) {
	if rt.resolver == nil {
		return nil, 0, fmt.Errorf("core: runtime at %s has no location-service resolver", rt.site)
	}
	addrs, cost, err := rt.resolver.Lookup(oid)
	if err != nil {
		return nil, cost, fmt.Errorf("core: bind %s: %w", oid.Short(), err)
	}
	lr, err := rt.proxyFromAddrs(oid, addrs)
	return lr, cost, err
}

// BindName resolves an object name through the Globe Name Service and
// binds to the resulting identifier — the two-level naming scheme in
// one step.
func (rt *Runtime) BindName(name string) (*LR, time.Duration, error) {
	if rt.names == nil {
		return nil, 0, fmt.Errorf("core: runtime at %s has no name service", rt.site)
	}
	oid, nameCost, err := rt.names.Resolve(name)
	if err != nil {
		return nil, nameCost, fmt.Errorf("core: bind %q: %w", name, err)
	}
	lr, bindCost, err := rt.Bind(oid)
	return lr, nameCost + bindCost, err
}

// proxyFromAddrs composes the client-side representative. The protocol
// and implementation come from the contact addresses; all addresses of
// one object advertise the same protocol, so the first one picks it.
func (rt *Runtime) proxyFromAddrs(oid ids.OID, addrs []gls.ContactAddress) (*LR, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("core: bind %s: no contact addresses", oid.Short())
	}
	primary := addrs[rt.pick(len(addrs))]
	sem, err := rt.registry.NewSemantics(primary.Impl)
	if err != nil {
		return nil, fmt.Errorf("core: bind %s: %w", oid.Short(), err)
	}
	proto, err := rt.registry.Protocol(primary.Protocol)
	if err != nil {
		return nil, fmt.Errorf("core: bind %s: %w", oid.Short(), err)
	}
	env := &Env{
		OID:     oid,
		Site:    rt.site,
		Clients: rt.clients,
		Exec:    NewLocalExec(sem),
		Auth:    rt.auth,
		Peers:   addrs,
		Resolve: func() ([]gls.ContactAddress, time.Duration, error) {
			return rt.resolver.Lookup(oid)
		},
		Clock: rt.clock,
		Logf:  rt.logf,
		Store: semStore(sem, nil),
	}
	repl, err := proto.NewProxy(env)
	if err != nil {
		return nil, fmt.Errorf("core: bind %s: %w", oid.Short(), err)
	}
	return newLR(oid, sem, repl, ""), nil
}

func (rt *Runtime) pick(n int) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.rnd.Intn(n)
}

// semStore resolves the chunk store serving a semantics' bulk
// content: the explicitly assigned one, else the semantics' own.
func semStore(sem Semantics, assigned *store.Store) *store.Store {
	if assigned != nil {
		return assigned
	}
	if cs, ok := sem.(ChunkStored); ok {
		return cs.Store()
	}
	return nil
}

// ReplicaSpec describes one hosted replica to construct.
type ReplicaSpec struct {
	// OID identifies the object; required.
	OID ids.OID
	// Impl names the semantics implementation in the registry.
	Impl string
	// Protocol and Role select and parameterize the replication
	// subobject.
	Protocol string
	Role     string
	// Params carries protocol tuning from the replication scenario.
	Params map[string]string
	// Peers holds contact addresses of already-existing representatives
	// (e.g. the master, for a new slave).
	Peers []gls.ContactAddress
	// InitState, when non-nil, seeds the semantics state (recovery from
	// a checkpoint or replica creation with state transfer).
	InitState []byte
	// Store, when non-nil, is the chunk store the replica's bulk
	// content must live in: an object server's durable store or a
	// proxy cache's LRU store. It is injected into the semantics
	// before InitState is installed, so a manifest-based state finds
	// its chunks. Nil leaves the semantics on its own private store.
	Store *store.Store
}

// NewReplica composes a hosted representative serving on disp and
// returns it with the contact address to register in the location
// service. The caller (a Globe Object Server) performs the GLS
// registration itself so registration authority stays with the server.
func (rt *Runtime) NewReplica(spec ReplicaSpec, disp *Dispatcher) (*LR, gls.ContactAddress, error) {
	if spec.OID.IsNil() {
		return nil, gls.ContactAddress{}, fmt.Errorf("core: replica spec without object identifier")
	}
	if disp == nil {
		return nil, gls.ContactAddress{}, fmt.Errorf("core: hosted replica needs a dispatcher")
	}
	sem, err := rt.registry.NewSemantics(spec.Impl)
	if err != nil {
		return nil, gls.ContactAddress{}, err
	}
	// Home the semantics' bulk content on the hosting process's store
	// before any state arrives, so a manifest-based InitState finds
	// its chunks there and chunk fetches are served from it.
	if spec.Store != nil {
		if cs, ok := sem.(ChunkStored); ok {
			cs.UseStore(spec.Store)
		}
	}
	if spec.InitState != nil {
		if err := sem.UnmarshalState(spec.InitState); err != nil {
			return nil, gls.ContactAddress{}, fmt.Errorf("core: replica %s: seed state: %w", spec.OID.Short(), err)
		}
	}
	proto, err := rt.registry.Protocol(spec.Protocol)
	if err != nil {
		return nil, gls.ContactAddress{}, err
	}
	// Hosted replicas that route through a ranked peer set (the cache
	// protocol re-parenting) re-resolve through the location service
	// just like proxies; runtimes without a resolver (moderator staging
	// worlds) leave the set on its construction-time peers.
	var resolve func() ([]gls.ContactAddress, time.Duration, error)
	if rt.resolver != nil {
		oid := spec.OID
		resolve = func() ([]gls.ContactAddress, time.Duration, error) {
			return rt.resolver.Lookup(oid)
		}
	}
	env := &Env{
		OID:     spec.OID,
		Site:    rt.site,
		Clients: rt.clients,
		Exec:    NewLocalExec(sem),
		Disp:    disp,
		Auth:    rt.auth,
		Role:    spec.Role,
		Params:  spec.Params,
		Peers:   spec.Peers,
		Resolve: resolve,
		Clock:   rt.clock,
		Logf:    rt.logf,
		Store:   semStore(sem, spec.Store),
	}
	repl, err := proto.NewReplica(env)
	if err != nil {
		return nil, gls.ContactAddress{}, fmt.Errorf("core: replica %s: %w", spec.OID.Short(), err)
	}
	ca := gls.ContactAddress{
		Protocol: spec.Protocol,
		Address:  disp.Addr(),
		Impl:     spec.Impl,
		Role:     spec.Role,
	}
	return newLR(spec.OID, sem, repl, spec.Role), ca, nil
}
