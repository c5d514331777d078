package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"gdn/internal/core"
	"gdn/internal/daemon"
	"gdn/internal/dns"
	"gdn/internal/gls"
	"gdn/internal/gns"
	"gdn/internal/gos"
	"gdn/internal/httpd"
	"gdn/internal/modtool"
	"gdn/internal/sec"
	"gdn/internal/transport"
)

// zoneName is the GDN Zone every deployment serves.
const zoneName = "gdn.bench"

// tsigSecret signs the naming authority's updates to the zone server.
var tsigSecret = []byte("perfbench-tsig-secret")

// edgeMode selects the GDN-HTTPD flavour in front of the object server.
type edgeMode int

const (
	// edgeProxy binds plain client proxies: every GET streams every
	// byte from the object server.
	edgeProxy edgeMode = iota
	// edgeCaching installs cache replicas backed by an in-memory chunk
	// store of bounded capacity.
	edgeCaching
)

// stackConfig describes one deployment.
type stackConfig struct {
	dir        string // state root; the stack owns and removes it
	secure     bool   // two-way authenticated sec channels everywhere
	edge       edgeMode
	cacheBytes int64 // edge chunk-store capacity (edgeCaching)
}

// stack is a complete GDN on loopback TCP, assembled the way the cmd/
// daemons assemble it: a GLS root → region → two leaves, a root DNS
// server delegating the zone to one authoritative server, the naming
// authority, one object server, a moderator tool, a user runtime and a
// GDN-HTTPD served by net/http. The object server and the moderator
// attach to leaf A; the edge and the user attach to leaf B, so every
// lookup climbs to the region and descends.
type stack struct {
	cfg     stackConfig
	closers []func()

	ca       *sec.Authority
	rootDNS  string
	leafA    string
	leafB    string
	glsNodes []*gls.Node
	zoneSrv  *dns.Server
	naAddr   string
	gos      *gos.Server
	gosCmd   string
	tool     *modtool.Tool
	user     *core.Runtime
	edge     *httpd.Handler
	edgeURL  string
}

// freeAddr reserves a loopback TCP address for a service.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func (s *stack) onClose(f func()) { s.closers = append(s.closers, f) }

// Close tears the deployment down, newest service first, and removes
// its state directory.
func (s *stack) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
	os.RemoveAll(s.cfg.dir)
}

// creds issues credentials for a role, as gdn.World does for a secure
// topology: GDN hosts authenticate both ways, users only the server.
// It returns nil in a plain deployment.
func (s *stack) creds(role, id string) (*sec.Config, error) {
	if s.ca == nil {
		return nil, nil
	}
	c, err := sec.NewCredentials(s.ca, sec.Principal(role, id), role)
	if err != nil {
		return nil, err
	}
	return &sec.Config{
		Creds:             c,
		TrustAnchors:      s.ca.Anchors(),
		RequireClientAuth: role != sec.RoleUser,
	}, nil
}

// runtime builds a Globe runtime attached to a GLS leaf, with its own
// caching DNS resolver, carrying auth (nil in plain deployments).
func (s *stack) runtime(site, leaf string, auth *sec.Config) *core.Runtime {
	return s.runtimeDNS(site, leaf, auth, true)
}

// runtimeDNS is runtime with the DNS resolver's cache on or off.
func (s *stack) runtimeDNS(site, leaf string, auth *sec.Config, dnsCache bool) *core.Runtime {
	tcp := transport.TCP{}
	var opts []gls.ResolverOption
	if auth != nil {
		opts = append(opts, gls.WithResolverAuth(auth))
	}
	res := gls.NewResolver(tcp, site, gls.Ref{Addrs: []string{leaf}}, opts...)
	dnsRes := dns.NewResolver(tcp, site, []string{s.rootDNS})
	dnsRes.CacheEnabled = dnsCache
	s.onClose(func() { res.Close(); dnsRes.Close() })
	return core.NewRuntime(core.RuntimeConfig{
		Site:     site,
		Net:      tcp,
		Resolver: res,
		Names:    gns.NewNameService(dnsRes, zoneName),
		Registry: daemon.Registry(),
		Auth:     auth,
	})
}

// deploy starts every service of the stack. On error the partial
// deployment is torn down.
func deploy(cfg stackConfig) (s *stack, err error) {
	s = &stack{cfg: cfg}
	defer func() {
		if err != nil {
			s.Close()
			s = nil
		}
	}()
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.secure {
		if s.ca, err = sec.NewAuthority("perfbench-authority"); err != nil {
			return nil, err
		}
	}
	if err := s.startGLS(); err != nil {
		return nil, fmt.Errorf("gls: %w", err)
	}
	if err := s.startNaming(); err != nil {
		return nil, fmt.Errorf("naming: %w", err)
	}
	if err := s.startGOS(); err != nil {
		return nil, fmt.Errorf("gos: %w", err)
	}
	if err := s.startModerator(); err != nil {
		return nil, fmt.Errorf("moderator: %w", err)
	}
	userAuth, err := s.creds(sec.RoleUser, "user")
	if err != nil {
		return nil, err
	}
	if userAuth != nil {
		userAuth.RequireClientAuth = false
	}
	s.user = s.runtime("user", s.leafB, userAuth)
	if err := s.startEdge(); err != nil {
		return nil, fmt.Errorf("edge: %w", err)
	}
	return s, nil
}

// startGLS runs root → region → leaves A and B, each journaling to its
// own state directory as gdn-gls -state-dir does.
func (s *stack) startGLS() error {
	auth, err := s.creds(sec.RoleGLS, "tree")
	if err != nil {
		return err
	}
	start := func(domain string, parent []string) (string, error) {
		addr, err := freeAddr()
		if err != nil {
			return "", err
		}
		node, err := gls.Start(transport.TCP{}, gls.Config{
			Domain:   domain,
			Site:     "bench",
			Addr:     addr,
			Self:     gls.Ref{Addrs: []string{addr}},
			Parent:   gls.Ref{Addrs: parent},
			Auth:     auth,
			StateDir: filepath.Join(s.cfg.dir, "gls", filepath.FromSlash(domain)),
		})
		if err != nil {
			return "", err
		}
		s.onClose(func() { node.Close() })
		s.glsNodes = append(s.glsNodes, node)
		return addr, nil
	}
	root, err := start("root", nil)
	if err != nil {
		return err
	}
	region, err := start("eu", []string{root})
	if err != nil {
		return err
	}
	if s.leafA, err = start("eu/a", []string{region}); err != nil {
		return err
	}
	s.leafB, err = start("eu/b", []string{region})
	return err
}

// startNaming runs the root DNS server, the zone's authoritative server
// and the naming authority that updates it.
func (s *stack) startNaming() error {
	tcp := transport.TCP{}
	rootAddr, err := freeAddr()
	if err != nil {
		return err
	}
	zoneAddr, err := freeAddr()
	if err != nil {
		return err
	}
	rootSrv, err := dns.ServeDNS(tcp, rootAddr, nil)
	if err != nil {
		return err
	}
	s.onClose(func() { rootSrv.Close() })
	rootZone := dns.NewZone("")
	if err := rootZone.Add(dns.RR{Name: zoneName, Type: dns.TypeNS, TTL: 3600, Data: "ns1." + zoneName}); err != nil {
		return err
	}
	if err := rootZone.Add(dns.RR{Name: "ns1." + zoneName, Type: dns.TypeADDR, TTL: 3600, Data: zoneAddr}); err != nil {
		return err
	}
	rootSrv.AddZone(rootZone)
	s.rootDNS = rootAddr

	zoneSrv, err := dns.ServeDNS(tcp, zoneAddr, nil)
	if err != nil {
		return err
	}
	s.onClose(func() { zoneSrv.Close() })
	zone := dns.NewZone(zoneName)
	zone.AllowUpdate("na-key", tsigSecret)
	zoneSrv.AddZone(zone)
	s.zoneSrv = zoneSrv

	auth, err := s.creds(sec.RoleGNS, "naming-authority")
	if err != nil {
		return err
	}
	if s.naAddr, err = freeAddr(); err != nil {
		return err
	}
	na, err := gns.StartAuthority(tcp, gns.AuthorityConfig{
		Zone:       zoneName,
		Site:       "bench",
		Addr:       s.naAddr,
		Servers:    []string{zoneAddr},
		TSIGKey:    "na-key",
		TSIGSecret: tsigSecret,
		Auth:       auth,
	})
	if err != nil {
		return err
	}
	s.onClose(func() { na.Close() })
	return nil
}

// startGOS runs the object server with a disk chunk store and
// checkpoint log under the stack's state directory.
func (s *stack) startGOS() error {
	auth, err := s.creds(sec.RoleGOS, "gos")
	if err != nil {
		return err
	}
	if s.gosCmd, err = freeAddr(); err != nil {
		return err
	}
	objAddr, err := freeAddr()
	if err != nil {
		return err
	}
	srv, err := gos.Start(transport.TCP{}, gos.Config{
		Site:     "gos",
		CmdAddr:  s.gosCmd,
		ObjAddr:  objAddr,
		Runtime:  s.runtime("gos", s.leafA, auth),
		StateDir: filepath.Join(s.cfg.dir, "gos"),
		// The scrubber's first pass comes 30 s after start, inside or
		// outside the measured phase depending on how long set-up took;
		// a background pass that lands by chance is noise, not load.
		ScrubEvery: -1,
		Auth:       auth,
	})
	if err != nil {
		return err
	}
	s.onClose(func() { srv.Close() })
	s.gos = srv
	return nil
}

func (s *stack) startModerator() error {
	auth, err := s.creds(sec.RoleModerator, "moderator")
	if err != nil {
		return err
	}
	tool, err := modtool.New(modtool.Config{
		Site:            "moderator",
		Net:             transport.TCP{},
		Runtime:         s.runtime("moderator", s.leafA, auth),
		NamingAuthority: s.naAddr,
		Auth:            auth,
	})
	if err != nil {
		return err
	}
	s.onClose(func() { tool.Close() })
	s.tool = tool
	return nil
}

// startEdge runs the GDN-HTTPD under net/http on a loopback listener.
func (s *stack) startEdge() error {
	auth, err := s.creds(sec.RoleHTTPD, "edge")
	if err != nil {
		return err
	}
	rt := s.runtime("edge", s.leafB, auth)
	cfg := httpd.Config{Runtime: rt}
	if s.cfg.edge == edgeCaching {
		objAddr, err := freeAddr()
		if err != nil {
			return err
		}
		disp, err := core.NewDispatcher(transport.TCP{}, "edge", objAddr, auth, nil)
		if err != nil {
			return err
		}
		s.onClose(func() { disp.Close() })
		cfg.CacheObjects = true
		cfg.Disp = disp
		cfg.CacheParams = map[string]string{"ttl": "30s", "mode": "ttl"}
		cfg.CacheBytes = s.cfg.cacheBytes
	}
	h, err := httpd.New(cfg)
	if err != nil {
		return err
	}
	s.onClose(func() { h.Close() })
	s.edge = h

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: tracedEdge(h)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := srv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: edge: %v\n", err)
		}
	}()
	s.onClose(func() { srv.Close(); <-served })
	s.edgeURL = "http://" + l.Addr().String()
	return nil
}

// glsRecords sums the object records held by every directory node.
func (s *stack) glsRecords() int {
	n := 0
	for _, node := range s.glsNodes {
		n += node.Records()
	}
	return n
}

// glsLookups sums the lookups every directory node has served.
func (s *stack) glsLookups() int64 {
	var n int64
	for _, node := range s.glsNodes {
		st := node.Stats()
		n += st.Lookups + st.Descends
	}
	return n
}

// zoneSize is the number of resource records in the GDN zone.
func (s *stack) zoneSize() int {
	z, ok := s.zoneSrv.Zone(zoneName)
	if !ok {
		return -1
	}
	return len(z.Dump())
}
