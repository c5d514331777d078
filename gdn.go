// Package gdn is the public face of this reproduction of "The Globe
// Distribution Network" (Bakker et al., USENIX 2000): a worldwide
// application for distributing free software, built on the Globe
// middleware's distributed shared objects with per-object replication.
//
// The implementation lives in internal packages, one per subsystem:
//
//	internal/core     distributed shared objects: subobjects, binding
//	internal/repl     replication protocols (clientserver, masterslave,
//	                  active, cache, local)
//	internal/gls      the Globe Location Service (OID → contact address)
//	internal/dns      a miniature DNS (substrate for the name service)
//	internal/gns      the Globe Name Service and its Naming Authority
//	internal/pkgobj   the package DSO (files, manifests, digests)
//	internal/store    the content-addressed chunk store behind bulk
//	                  content, caches and object-server persistence
//	internal/gos      the Globe Object Server daemon logic
//	internal/httpd    the GDN-enabled HTTPD / proxy
//	internal/modtool  the moderator tool
//	internal/netsim   the simulated wide-area network
//	internal/sec      authenticated, integrity-protected channels
//
// This package re-exports the types a user composes deployments from
// and provides World, a builder that assembles a complete GDN — the
// location-service tree, name servers, naming authority, object
// servers, moderator tools and GDN HTTPDs — either on the simulated
// WAN (tests, benchmarks, experiments) or on real TCP (the cmd/
// daemons build their own smaller assemblies).
package gdn

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gdn/internal/core"
	"gdn/internal/dns"
	"gdn/internal/gls"
	"gdn/internal/gns"
	"gdn/internal/gos"
	"gdn/internal/httpd"
	"gdn/internal/ids"
	"gdn/internal/modtool"
	"gdn/internal/netsim"
	"gdn/internal/pkgobj"
	"gdn/internal/repl"
	"gdn/internal/sec"
)

// Re-exported identifiers, so deployments can be written against this
// package alone.
type (
	// OID is a worldwide-unique, location-independent object identifier.
	OID = ids.OID
	// Scenario is a replication scenario: protocol + hosting servers.
	Scenario = core.Scenario
	// ContactAddress locates one representative of an object.
	ContactAddress = gls.ContactAddress
	// Package describes a package's files and metadata for creation.
	Package = modtool.Package
	// FileInfo describes one file inside a package.
	FileInfo = pkgobj.FileInfo
	// Stub is the typed client interface of a package DSO.
	Stub = pkgobj.Stub
)

// Replication protocol names, re-exported from internal/repl.
const (
	ProtocolClientServer = repl.ClientServer
	ProtocolMasterSlave  = repl.MasterSlave
	ProtocolActive       = repl.Active
	ProtocolCache        = repl.Cache
)

// Topology describes the simulated world to build: regions and the
// sites inside them. The first listed site of each region hosts that
// region's location-service directory node and one authoritative name
// server for the GDN Zone.
type Topology struct {
	// Regions maps a region name ("eu") to its site names. Iteration
	// order is normalized by sorting, so topologies are deterministic.
	Regions map[string][]string
	// HubSite hosts the root directory node, the root DNS server and
	// the naming authority. Defaults to "hub" (created automatically).
	HubSite string
	// RootSubnodes partitions the location-service root directory node
	// (§3.5); 1 (default) means unpartitioned. Extra subnode sites are
	// created in the hub's domain.
	RootSubnodes int
	// SharedRegionLeaves attaches every site of a region to the region's
	// directory node directly instead of giving each site its own leaf
	// node. Replicas hosted anywhere in the region then register in one
	// record, so a single lookup returns every regional replica — the
	// peer set a binding client needs for instant intra-region failover.
	// The failover experiments use this; the default (per-site leaves)
	// preserves the paper's deeper hierarchy.
	SharedRegionLeaves bool
	// Zone is the GDN Zone name; defaults to "gdn.cs.vu.nl".
	Zone string
	// GNSBatchSize batches naming-authority updates (§5); default 1.
	GNSBatchSize int
	// Secure runs every service with two-way authenticated channels and
	// role-based admission (§6.3).
	Secure bool
	// GOSLeaseTTL overrides the object servers' registration-session
	// TTL. 0 keeps the gos default (30s); chaos experiments shrink it
	// so partition-heal repair is observable in wall-clock seconds.
	GOSLeaseTTL time.Duration
}

// DefaultTopology is a small three-region world used by examples and
// benchmarks: two sites per region in Europe, North America and Asia.
func DefaultTopology() Topology {
	return Topology{
		Regions: map[string][]string{
			"eu": {"eu-nl-vu", "eu-de-tu"},
			"na": {"na-ca-ucb", "na-ny-cu"},
			"ap": {"ap-jp-ut", "ap-au-mu"},
		},
	}
}

// VirtualClock is a controllable time source shared by a World's
// runtimes; TTL caches expire when tests advance it.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// Now returns the current virtual time.
func (vc *VirtualClock) Now() time.Time {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.now
}

// Advance moves virtual time forward.
func (vc *VirtualClock) Advance(d time.Duration) {
	vc.mu.Lock()
	vc.now = vc.now.Add(d)
	vc.mu.Unlock()
}

// World is a complete in-process GDN deployment on a simulated WAN.
type World struct {
	Net   *netsim.Network
	Tree  *gls.Tree
	Clock *VirtualClock

	topology Topology
	zone     string
	sites    []string // all leaf sites, sorted
	regions  []string // region names, sorted

	dnsServers map[string]*dns.Server // by site
	authority  *gns.Authority
	gosServers map[string]*gos.Server // by site

	registry *core.Registry
	secCA    *sec.Authority

	mu       sync.Mutex
	closers  []func()
	runtimes map[string]*core.Runtime
}

// Zone returns the GDN Zone name.
func (w *World) Zone() string { return w.zone }

// Sites returns every leaf site, sorted.
func (w *World) Sites() []string { return append([]string(nil), w.sites...) }

// Regions returns the region names, sorted.
func (w *World) Regions() []string { return append([]string(nil), w.regions...) }

// RegionSites returns the sites of one region.
func (w *World) RegionSites(region string) []string {
	return append([]string(nil), w.topology.Regions[region]...)
}

// Registry returns the shared implementation repository (package
// semantics and all replication protocols pre-registered).
func (w *World) Registry() *core.Registry { return w.registry }

// Authority returns the GNS Naming Authority.
func (w *World) Authority() *gns.Authority { return w.authority }

// GOS returns the object server at a site, if one was started.
func (w *World) GOS(site string) (*gos.Server, bool) {
	s, ok := w.gosServers[site]
	return s, ok
}

// DNSServer returns the authoritative name server at a site, if any.
func (w *World) DNSServer(site string) (*dns.Server, bool) {
	s, ok := w.dnsServers[site]
	return s, ok
}

// Close tears the whole world down, newest services first.
func (w *World) Close() {
	w.mu.Lock()
	closers := w.closers
	w.closers = nil
	w.mu.Unlock()
	for i := len(closers) - 1; i >= 0; i-- {
		closers[i]()
	}
}

func (w *World) addCloser(f func()) {
	w.mu.Lock()
	w.closers = append(w.closers, f)
	w.mu.Unlock()
}

// NewWorld builds and starts a deployment: the simulated network, the
// location-service hierarchy (root, one domain per region, one leaf
// domain per site), a root DNS server delegating the GDN Zone to one
// authoritative server per region, the naming authority, and one Globe
// Object Server per site.
func NewWorld(top Topology) (*World, error) {
	if len(top.Regions) == 0 {
		return nil, fmt.Errorf("gdn: topology needs regions")
	}
	if top.HubSite == "" {
		top.HubSite = "hub"
	}
	if top.Zone == "" {
		top.Zone = "gdn.cs.vu.nl"
	}
	if top.RootSubnodes < 1 {
		top.RootSubnodes = 1
	}
	if top.GNSBatchSize < 1 {
		top.GNSBatchSize = 1
	}

	w := &World{
		Net:        netsim.New(nil),
		Clock:      &VirtualClock{now: time.Unix(1_000_000_000, 0)},
		topology:   top,
		zone:       dns.CanonicalName(top.Zone),
		dnsServers: make(map[string]*dns.Server),
		gosServers: make(map[string]*gos.Server),
		registry:   core.NewRegistry(),
		runtimes:   make(map[string]*core.Runtime),
	}
	pkgobj.Register(w.registry)
	repl.RegisterAll(w.registry)

	if top.Secure {
		ca, err := sec.NewAuthority("gdn-root-authority")
		if err != nil {
			return nil, err
		}
		w.secCA = ca
	}

	// Regions and sites, sorted for determinism.
	for region := range top.Regions {
		w.regions = append(w.regions, region)
	}
	sort.Strings(w.regions)
	for _, region := range w.regions {
		if len(top.Regions[region]) == 0 {
			return nil, fmt.Errorf("gdn: region %q has no sites", region)
		}
		for _, site := range top.Regions[region] {
			w.Net.AddSite(site, site, region)
			w.sites = append(w.sites, site)
		}
	}
	sort.Strings(w.sites)
	w.Net.AddSite(top.HubSite, top.HubSite, "core")

	// Location-service hierarchy. Root subnodes beyond the first get
	// their own hub-domain sites.
	rootSites := []string{top.HubSite}
	for i := 1; i < top.RootSubnodes; i++ {
		extra := fmt.Sprintf("%s-%d", top.HubSite, i)
		w.Net.AddSite(extra, top.HubSite, "core")
		rootSites = append(rootSites, extra)
	}
	rootSpec := gls.DomainSpec{Name: "root", Sites: rootSites}
	for _, region := range w.regions {
		regionSpec := gls.DomainSpec{Name: region, Sites: []string{top.Regions[region][0]}}
		if !top.SharedRegionLeaves {
			for _, site := range top.Regions[region] {
				regionSpec.Children = append(regionSpec.Children, gls.Leaf(region+"/"+site, site))
			}
		}
		rootSpec.Children = append(rootSpec.Children, regionSpec)
	}
	var treeOpts []gls.DeployOption
	if w.secCA != nil {
		auth, err := w.Credentials(sec.RoleGLS, "tree")
		if err != nil {
			return nil, err
		}
		treeOpts = append(treeOpts, gls.WithTreeAuth(auth))
	}
	tree, err := gls.Deploy(w.Net, rootSpec, treeOpts...)
	if err != nil {
		return nil, err
	}
	w.Tree = tree
	w.addCloser(tree.Close)

	if err := w.startNaming(); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.startObjectServers(); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// Credentials issues credentials for a role from the world's authority
// (secure worlds only). GDN hosts get two-way authentication.
func (w *World) Credentials(role, id string) (*sec.Config, error) {
	if w.secCA == nil {
		return nil, nil
	}
	creds, err := sec.NewCredentials(w.secCA, sec.Principal(role, id), role)
	if err != nil {
		return nil, err
	}
	requireClient := role != sec.RoleUser
	return &sec.Config{
		Creds:             creds,
		TrustAnchors:      w.secCA.Anchors(),
		RequireClientAuth: requireClient,
	}, nil
}

// tsigSecret is the shared key between the naming authority and the
// zone's name servers.
var tsigSecret = []byte("gdn-naming-authority-tsig-key")

// startNaming brings up DNS and the naming authority: a root server at
// the hub delegating the GDN Zone to one authoritative server per
// region.
func (w *World) startNaming() error {
	hub := w.topology.HubSite
	rootSrv, err := dns.ServeDNS(w.Net, hub+":dns", nil)
	if err != nil {
		return err
	}
	w.addCloser(func() { rootSrv.Close() })
	w.dnsServers[hub] = rootSrv

	rootZone := dns.NewZone("")
	var zoneServers []string
	for _, region := range w.regions {
		site := w.topology.Regions[region][0]
		srv, err := dns.ServeDNS(w.Net, site+":dns", nil)
		if err != nil {
			return err
		}
		w.addCloser(func() { srv.Close() })
		w.dnsServers[site] = srv

		zone := dns.NewZone(w.zone)
		zone.AllowUpdate("na-key", tsigSecret)
		srv.AddZone(zone)
		zoneServers = append(zoneServers, site+":dns")

		nsName := "ns-" + region + "." + w.zone
		if err := rootZone.Add(dns.RR{Name: w.zone, Type: dns.TypeNS, TTL: 3600, Data: nsName}); err != nil {
			return err
		}
		if err := rootZone.Add(dns.RR{Name: nsName, Type: dns.TypeADDR, TTL: 3600, Data: site + ":dns"}); err != nil {
			return err
		}
	}
	rootSrv.AddZone(rootZone)

	var naAuth *sec.Config
	if w.secCA != nil {
		var err error
		naAuth, err = w.Credentials(sec.RoleGNS, "naming-authority")
		if err != nil {
			return err
		}
	}
	authority, err := gns.StartAuthority(w.Net, gns.AuthorityConfig{
		Zone:       w.zone,
		Site:       hub,
		Addr:       hub + ":gns-authority",
		Servers:    zoneServers,
		TSIGKey:    "na-key",
		TSIGSecret: tsigSecret,
		BatchSize:  w.topology.GNSBatchSize,
		Auth:       naAuth,
	})
	if err != nil {
		return err
	}
	w.authority = authority
	w.addCloser(func() { authority.Close() })
	return nil
}

// startObjectServers launches one GOS per leaf site.
func (w *World) startObjectServers() error {
	for _, site := range w.sites {
		var auth *sec.Config
		if w.secCA != nil {
			var err error
			auth, err = w.Credentials(sec.RoleGOS, site)
			if err != nil {
				return err
			}
		}
		rt, err := w.runtime(site, auth)
		if err != nil {
			return err
		}
		srv, err := gos.Start(w.Net, gos.Config{
			Site:     site,
			CmdAddr:  site + ":gos-cmd",
			ObjAddr:  site + ":gos-obj",
			Runtime:  rt,
			Auth:     auth,
			LeaseTTL: w.topology.GOSLeaseTTL,
		})
		if err != nil {
			return err
		}
		w.gosServers[site] = srv
		w.addCloser(func() { srv.Close() })
	}
	return nil
}

// leafDomain returns the location-service domain a site's clients and
// servers attach to: the site's own leaf, or the whole region's node
// when the topology shares leaves.
func (w *World) leafDomain(site string) (string, error) {
	for _, region := range w.regions {
		for _, s := range w.topology.Regions[region] {
			if s == site {
				if w.topology.SharedRegionLeaves {
					return region, nil
				}
				return region + "/" + site, nil
			}
		}
	}
	return "", fmt.Errorf("gdn: unknown site %q", site)
}

// DNSResolver returns a caching DNS resolver at a site, rooted at the
// hub's root server.
func (w *World) DNSResolver(site string) *dns.Resolver {
	res := dns.NewResolver(w.Net, site, []string{w.topology.HubSite + ":dns"})
	w.addCloser(func() { res.Close() })
	return res
}

// NameService returns a GNS read handle at a site.
func (w *World) NameService(site string) *gns.NameService {
	return gns.NewNameService(w.DNSResolver(site), w.zone)
}

// GLSResolver returns a location-service resolver attached to the
// site's leaf domain.
func (w *World) GLSResolver(site string, auth *sec.Config) (*gls.Resolver, error) {
	leaf, err := w.leafDomain(site)
	if err != nil {
		return nil, err
	}
	var opts []gls.ResolverOption
	if auth != nil {
		opts = append(opts, gls.WithResolverAuth(auth))
	}
	res, err := w.Tree.Resolver(site, leaf, opts...)
	if err != nil {
		return nil, err
	}
	w.addCloser(func() { res.Close() })
	return res, nil
}

// runtime builds (and caches per site+auth-identity) a runtime.
func (w *World) runtime(site string, auth *sec.Config) (*core.Runtime, error) {
	key := site
	if auth != nil && auth.Creds != nil {
		key += "/" + auth.Creds.Cert.Name
	}
	w.mu.Lock()
	rt, ok := w.runtimes[key]
	w.mu.Unlock()
	if ok {
		return rt, nil
	}
	res, err := w.GLSResolver(site, auth)
	if err != nil {
		return nil, err
	}
	rt = core.NewRuntime(core.RuntimeConfig{
		Site:     site,
		Net:      w.Net,
		Resolver: res,
		Names:    w.NameService(site),
		Registry: w.registry,
		Auth:     auth,
		Clock:    w.Clock.Now,
	})
	w.addCloser(func() { rt.Close() })
	w.mu.Lock()
	w.runtimes[key] = rt
	w.mu.Unlock()
	return rt, nil
}

// UserRuntime returns a runtime for an ordinary GDN user at a site:
// anonymous in open worlds, user-role credentials in secure ones.
func (w *World) UserRuntime(site string) (*core.Runtime, error) {
	var auth *sec.Config
	if w.secCA != nil {
		var err error
		auth, err = w.Credentials(sec.RoleUser, "user-"+site)
		if err != nil {
			return nil, err
		}
		auth.RequireClientAuth = false
	}
	return w.runtime(site, auth)
}

// GOSAddrs returns the command addresses of the object servers at the
// given sites; a replication scenario is a protocol plus this list.
func (w *World) GOSAddrs(sites ...string) []string {
	out := make([]string, len(sites))
	for i, site := range sites {
		out[i] = site + ":gos-cmd"
	}
	return out
}

// Moderator returns a moderator tool homed at a site.
func (w *World) Moderator(site, name string) (*modtool.Tool, error) {
	var auth *sec.Config
	if w.secCA != nil {
		var err error
		auth, err = w.Credentials(sec.RoleModerator, name)
		if err != nil {
			return nil, err
		}
	}
	rt, err := w.runtime(site, auth)
	if err != nil {
		return nil, err
	}
	tool, err := modtool.New(modtool.Config{
		Site:            site,
		Net:             w.Net,
		Runtime:         rt,
		NamingAuthority: w.topology.HubSite + ":gns-authority",
		Auth:            auth,
	})
	if err != nil {
		return nil, err
	}
	w.addCloser(func() { tool.Close() })
	return tool, nil
}

// HTTPDConfig tunes an HTTPD created with HTTPD.
type HTTPDConfig struct {
	// Caching installs cache replicas during binding (the paper's
	// "may act as a replica").
	Caching bool
	// CacheParams tunes the caches (ttl, mode).
	CacheParams map[string]string
	// RegisterCaches registers caches in the location service.
	RegisterCaches bool
	// CacheBytes bounds the HTTPD's shared chunk cache (0 = default).
	CacheBytes int64
	// StateDir roots the chunk cache on disk so it survives restarts
	// ("" = in-memory).
	StateDir string
	// LeaseTTL is the registration-session lifetime for registered
	// caches (<= 0 = default 30s).
	LeaseTTL time.Duration
	// RenewEvery overrides the session heartbeat cadence (negative
	// disables the loop; tests renew by hand).
	RenewEvery time.Duration
}

// HTTPD starts a GDN-enabled HTTPD at a site and returns its handler.
func (w *World) HTTPD(site string, cfg HTTPDConfig) (*httpd.Handler, error) {
	var auth *sec.Config
	if w.secCA != nil {
		var err error
		auth, err = w.Credentials(sec.RoleHTTPD, site)
		if err != nil {
			return nil, err
		}
	}
	rt, err := w.runtime(site, auth)
	if err != nil {
		return nil, err
	}
	var disp *core.Dispatcher
	if cfg.Caching {
		disp, err = core.NewDispatcher(w.Net, site, site+":httpd-obj", auth, nil)
		if err != nil {
			return nil, err
		}
		w.addCloser(func() { disp.Close() })
	}
	h, err := httpd.New(httpd.Config{
		Runtime:        rt,
		CacheObjects:   cfg.Caching,
		Disp:           disp,
		CacheParams:    cfg.CacheParams,
		RegisterCaches: cfg.RegisterCaches,
		CacheBytes:     cfg.CacheBytes,
		StateDir:       cfg.StateDir,
		LeaseTTL:       cfg.LeaseTTL,
		RenewEvery:     cfg.RenewEvery,
	})
	if err != nil {
		return nil, err
	}
	w.addCloser(func() { h.Close() })
	return h, nil
}

// BindPackage binds a user at a site to a package by name and returns
// its typed stub.
func (w *World) BindPackage(site, name string) (*Stub, time.Duration, error) {
	rt, err := w.UserRuntime(site)
	if err != nil {
		return nil, 0, err
	}
	lr, cost, err := rt.BindName(name)
	if err != nil {
		return nil, cost, err
	}
	return pkgobj.NewStub(lr), cost, nil
}
