package gns

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gdn/internal/dns"
	"gdn/internal/ids"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/transport"
	"gdn/internal/wire"
)

// Naming Authority operation codes.
const (
	// OpAdd registers an object name; body: name, OID.
	OpAdd uint16 = iota + 1
	// OpRemove deregisters an object name; body: name.
	OpRemove
	// OpFlush forces pending updates out to the name servers.
	OpFlush
	// OpPending returns the number of staged update records.
	OpPending
)

// AuthorityConfig configures a Naming Authority: "the daemon that sends
// DNS UPDATE messages to the name servers responsible for the GDN Zone,
// in response to add and remove requests from clients" (paper §6.1).
type AuthorityConfig struct {
	// Zone is the GDN Zone, e.g. "gdn.cs.vu.nl".
	Zone string
	// Site and Addr place the authority's RPC endpoint.
	Site string
	Addr string
	// Servers lists the authoritative name servers for the zone. The
	// authority sends every signed update to each of them — the paper
	// spreads resolution load over "multiple authoritative name
	// servers" (§5); pushing updates to all replaces zone transfer.
	Servers []string
	// TSIGKey and TSIGSecret sign updates toward the name servers; the
	// zone must list the same key via Zone.AllowUpdate.
	TSIGKey    string
	TSIGSecret []byte
	// BatchSize staged records trigger an automatic flush. 1 sends every
	// change immediately; larger values implement the paper's "the
	// number of updates to our zone can be kept low by batching" (§5).
	BatchSize int
	// Auth, when non-nil, restricts Add and Remove to authenticated
	// moderators and administrators (paper §6.1, requirement 3).
	Auth *sec.Config
	// Now supplies the TSIG clock (defaults to wall time).
	Now func() int64
	// Logf receives diagnostics; nil discards them.
	Logf func(string, ...any)
}

// Authority is a running Naming Authority. It is the sole writer of the
// GDN Zone: it owns the authoritative table of registered names and
// turns changes into batched, TSIG-signed dynamic updates.
type Authority struct {
	cfg AuthorityConfig

	mu       sync.Mutex
	names    map[string]ids.OID         // object name -> OID
	children map[string]map[string]bool // directory -> child labels
	pending  []dns.RR
	flushes  int64

	clients *rpc.Clients // the zone's name servers

	server *rpc.Server
}

// StartAuthority launches a Naming Authority.
func StartAuthority(net transport.Network, cfg AuthorityConfig) (*Authority, error) {
	cfg.Zone = dns.CanonicalName(cfg.Zone)
	if cfg.Zone == "" {
		return nil, fmt.Errorf("gns: authority needs a zone")
	}
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("gns: authority needs at least one name server")
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().Unix() }
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	a := &Authority{
		cfg:      cfg,
		names:    make(map[string]ids.OID),
		children: make(map[string]map[string]bool),
		clients:  rpc.NewClients(net, cfg.Site),
	}
	opts := []rpc.ServerOption{rpc.WithServerLog(cfg.Logf)}
	if cfg.Auth != nil {
		opts = append(opts, rpc.WithServerWrapper(cfg.Auth.WrapServer))
	}
	srv, err := rpc.Serve(net, cfg.Addr, a.handle, opts...)
	if err != nil {
		return nil, err
	}
	a.server = srv
	return a, nil
}

// Addr returns the authority's RPC address.
func (a *Authority) Addr() string { return a.cfg.Addr }

// Close stops the authority. Pending updates are not flushed; restart
// recovery re-derives them from the registered-names snapshot.
func (a *Authority) Close() error {
	err := a.server.Close()
	a.clients.Close()
	return err
}

// Flushes returns how many update messages have been sent to the name
// servers; the batching experiment compares this against registrations.
func (a *Authority) Flushes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flushes
}

// Names returns all registered object names, sorted.
func (a *Authority) Names() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.names))
	for n := range a.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (a *Authority) handle(call *rpc.Call) ([]byte, error) {
	switch call.Op {
	case OpAdd:
		return a.handleAdd(call)
	case OpRemove:
		return a.handleRemove(call)
	case OpFlush:
		return nil, a.flush(call)
	case OpPending:
		a.mu.Lock()
		n := len(a.pending)
		a.mu.Unlock()
		w := wire.NewWriter(4)
		w.Uint32(uint32(n))
		return w.Bytes(), nil
	default:
		return nil, fmt.Errorf("gns: unknown op %d", call.Op)
	}
}

// authorize admits moderators and administrators when security is on.
func (a *Authority) authorize(call *rpc.Call) error {
	if a.cfg.Auth == nil {
		return nil
	}
	if !sec.HasRole(call.Peer, sec.RoleModerator, sec.RoleAdmin) {
		return fmt.Errorf("%w: peer %q may not change the GDN zone", sec.ErrUnauthorized, call.Peer)
	}
	return nil
}

func (a *Authority) handleAdd(call *rpc.Call) ([]byte, error) {
	if err := a.authorize(call); err != nil {
		return nil, err
	}
	r := wire.NewReader(call.Body)
	name := r.Str()
	oid := r.OID()
	if err := r.Done(); err != nil {
		return nil, err
	}
	parts, err := SplitObjectName(name)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: cannot register the root directory", ErrBadObjectName)
	}
	canonical := "/" + strings.Join(parts, "/")

	a.mu.Lock()
	defer a.mu.Unlock()
	if _, taken := a.names[canonical]; taken {
		return nil, fmt.Errorf("%w: %s", ErrExists, canonical)
	}
	a.names[canonical] = oid

	dnsName, err := NameToDNS(canonical, a.cfg.Zone)
	if err != nil {
		return nil, err
	}
	a.stage(dns.RR{Name: dnsName, Type: dns.TypeTXT, Class: dns.ClassIN, TTL: recordTTL, Data: EncodeOIDRecord(oid)})

	// Register the name in each directory above it that does not list it
	// yet, creating directories on demand.
	dirs, err := ParentDirs(canonical)
	if err != nil {
		return nil, err
	}
	child := parts[len(parts)-1]
	// The immediate parent additionally gets a package marker, so a
	// single listing query classifies this child as an object — even
	// when the entry chain already existed (the name was a directory
	// before it became a package too).
	parentDNS, err := NameToDNS(dirs[0], a.cfg.Zone)
	if err != nil {
		return nil, err
	}
	a.stage(dns.RR{Name: parentDNS, Type: dns.TypeTXT, Class: dns.ClassIN, TTL: recordTTL, Data: EncodePkgRecord(child)})
	for i, dir := range dirs {
		kids := a.children[dir]
		if kids == nil {
			kids = make(map[string]bool)
			a.children[dir] = kids
		}
		if kids[child] {
			break // the chain above already exists
		}
		kids[child] = true
		dirDNS, err := NameToDNS(dir, a.cfg.Zone)
		if err != nil {
			return nil, err
		}
		a.stage(dns.RR{Name: dirDNS, Type: dns.TypeTXT, Class: dns.ClassIN, TTL: recordTTL, Data: EncodeEntryRecord(child)})
		// The next level up must list this directory.
		if i+1 < len(dirs) {
			child = lastLabel(dir)
		}
	}
	return nil, a.maybeFlushLocked(call)
}

func (a *Authority) handleRemove(call *rpc.Call) ([]byte, error) {
	if err := a.authorize(call); err != nil {
		return nil, err
	}
	r := wire.NewReader(call.Body)
	name := r.Str()
	if err := r.Done(); err != nil {
		return nil, err
	}
	parts, err := SplitObjectName(name)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: cannot remove the root directory", ErrBadObjectName)
	}
	canonical := "/" + strings.Join(parts, "/")

	a.mu.Lock()
	defer a.mu.Unlock()
	oid, ok := a.names[canonical]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, canonical)
	}
	delete(a.names, canonical)

	dnsName, err := NameToDNS(canonical, a.cfg.Zone)
	if err != nil {
		return nil, err
	}
	a.stage(dns.RR{Name: dnsName, Type: dns.TypeTXT, Class: dns.ClassNone, Data: EncodeOIDRecord(oid)})

	// Unlink from parent directories while they become empty. A name
	// that still has children stays listed: it is also a directory.
	dirs, err := ParentDirs(canonical)
	if err != nil {
		return nil, err
	}
	current := canonical
	child := parts[len(parts)-1]
	// The object is gone, so its package marker at the immediate parent
	// goes regardless of whether the name survives as a directory.
	parentDNS, err := NameToDNS(dirs[0], a.cfg.Zone)
	if err != nil {
		return nil, err
	}
	a.stage(dns.RR{Name: parentDNS, Type: dns.TypeTXT, Class: dns.ClassNone, Data: EncodePkgRecord(child)})
	for _, dir := range dirs {
		if len(a.children[current]) > 0 {
			break // still a non-empty directory; keep its entry
		}
		if _, isObject := a.names[current]; isObject {
			break // another registration (multi-name) keeps it alive
		}
		kids := a.children[dir]
		delete(kids, child)
		if len(kids) == 0 {
			delete(a.children, dir)
		}
		dirDNS, err := NameToDNS(dir, a.cfg.Zone)
		if err != nil {
			return nil, err
		}
		a.stage(dns.RR{Name: dirDNS, Type: dns.TypeTXT, Class: dns.ClassNone, Data: EncodeEntryRecord(child)})
		current = dir
		child = lastLabel(dir)
	}
	return nil, a.maybeFlushLocked(call)
}

// recordTTL is the TTL for GNS records. The paper leans on the
// assumption that name→OID mappings are stable, so a generous TTL is
// appropriate; resolvers cache it.
const recordTTL = 300

func (a *Authority) stage(rr dns.RR) {
	a.pending = append(a.pending, rr)
}

func (a *Authority) maybeFlushLocked(call *rpc.Call) error {
	if len(a.pending) < a.cfg.BatchSize {
		return nil
	}
	return a.flushLocked(call)
}

func (a *Authority) flush(call *rpc.Call) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flushLocked(call)
}

// flushLocked sends all pending records as one signed update to every
// authoritative server. The caller holds a.mu.
func (a *Authority) flushLocked(call *rpc.Call) error {
	if len(a.pending) == 0 {
		return nil
	}
	up := dns.NewUpdate(a.cfg.Zone)
	up.Authority = append(up.Authority, a.pending...)
	if err := dns.SignTSIG(up, a.cfg.TSIGKey, a.cfg.TSIGSecret, a.cfg.Now()); err != nil {
		return err
	}
	body, err := dns.Encode(up)
	if err != nil {
		return err
	}
	for _, server := range a.cfg.Servers {
		respBody, cost, err := a.clients.Get(server).Call(dns.OpDNS, body)
		if call != nil {
			call.Charge(cost)
		}
		if err != nil {
			return fmt.Errorf("gns: update to %s: %w", server, err)
		}
		resp, err := dns.Decode(respBody)
		if err != nil {
			return fmt.Errorf("gns: update to %s: %w", server, err)
		}
		if resp.RCode != dns.RCodeOK {
			return fmt.Errorf("gns: update to %s refused: %v", server, resp.RCode)
		}
	}
	a.pending = nil
	a.flushes++
	return nil
}

// Snapshot serializes the authority's name table for crash recovery.
func (a *Authority) Snapshot() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := wire.NewWriter(1024)
	w.Str(a.cfg.Zone)
	w.Count(len(a.names))
	for name, oid := range a.names {
		w.Str(name)
		w.OID(oid)
	}
	return w.Bytes()
}

// Restore rebuilds the name table (and the derived directory tree) from
// a snapshot. It does not emit DNS updates: the zone content either
// survived with the name servers or is re-pushed with ResyncZone.
func (a *Authority) Restore(b []byte) error {
	r := wire.NewReader(b)
	zone := r.Str()
	count := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	if zone != a.cfg.Zone {
		return fmt.Errorf("gns: snapshot is for zone %q, authority serves %q", zone, a.cfg.Zone)
	}
	names := make(map[string]ids.OID, count)
	for i := 0; i < count; i++ {
		name := r.Str()
		oid := r.OID()
		names[name] = oid
	}
	if err := r.Done(); err != nil {
		return err
	}

	children := make(map[string]map[string]bool)
	for name := range names {
		parts, err := SplitObjectName(name)
		if err != nil {
			return err
		}
		dirs, err := ParentDirs(name)
		if err != nil {
			return err
		}
		child := parts[len(parts)-1]
		for _, dir := range dirs {
			kids := children[dir]
			if kids == nil {
				kids = make(map[string]bool)
				children[dir] = kids
			}
			kids[child] = true
			child = lastLabel(dir)
		}
	}

	a.mu.Lock()
	a.names = names
	a.children = children
	a.pending = nil
	a.mu.Unlock()
	return nil
}

// ResyncZone re-stages every registered name as an update, bringing
// freshly initialized name servers to the authority's state.
func (a *Authority) ResyncZone() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for name, oid := range a.names {
		dnsName, err := NameToDNS(name, a.cfg.Zone)
		if err != nil {
			return err
		}
		a.stage(dns.RR{Name: dnsName, Type: dns.TypeTXT, Class: dns.ClassIN, TTL: recordTTL, Data: EncodeOIDRecord(oid)})
		dirs, err := ParentDirs(name)
		if err != nil {
			return err
		}
		parentDNS, err := NameToDNS(dirs[0], a.cfg.Zone)
		if err != nil {
			return err
		}
		a.stage(dns.RR{Name: parentDNS, Type: dns.TypeTXT, Class: dns.ClassIN, TTL: recordTTL, Data: EncodePkgRecord(lastLabel(name))})
	}
	for dir, kids := range a.children {
		dirDNS, err := NameToDNS(dir, a.cfg.Zone)
		if err != nil {
			return err
		}
		for child := range kids {
			a.stage(dns.RR{Name: dirDNS, Type: dns.TypeTXT, Class: dns.ClassIN, TTL: recordTTL, Data: EncodeEntryRecord(child)})
		}
	}
	return a.flushLocked(nil)
}

// lastLabel returns the final path component of an object name, or ""
// for the root.
func lastLabel(objectName string) string {
	if objectName == "/" {
		return ""
	}
	for i := len(objectName) - 1; i >= 0; i-- {
		if objectName[i] == '/' {
			return objectName[i+1:]
		}
	}
	return objectName
}
