package gns

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gdn/internal/dns"
	"gdn/internal/ids"
	"gdn/internal/obs"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/transport"
	"gdn/internal/walog"
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
	// StateDir holds the durable name table; "" keeps it in memory only.
	// Every Add and Remove is on disk before it is acknowledged, and a
	// restart replays the table and resyncs the zone from it.
	StateDir string
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
	names    map[string]ids.OID // object name -> OID
	children tree
	pending  []dns.RR
	flushes  int64
	table    *walog.Table // the durable names; nil without a StateDir

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
		children: make(tree),
		clients:  rpc.NewClients(net, cfg.Site),
	}
	if err := a.recover(); err != nil {
		a.close()
		return nil, err
	}
	opts := []rpc.ServerOption{rpc.WithServerLog(cfg.Logf)}
	if cfg.Auth != nil {
		opts = append(opts, rpc.WithServerWrapper(cfg.Auth.WrapServer))
	}
	srv, err := rpc.Serve(net, cfg.Addr, a.handle, opts...)
	if err != nil {
		a.close()
		return nil, err
	}
	a.server = srv
	return a, nil
}

// recover opens the durable name table, rebuilds the names and the
// directory tree from it, and pushes them to the name servers, which
// may have lost their zones since.
func (a *Authority) recover() error {
	if a.cfg.StateDir == "" {
		return nil
	}
	if err := os.MkdirAll(a.cfg.StateDir, 0o700); err != nil {
		return err
	}
	tab, err := walog.OpenTable(filepath.Join(a.cfg.StateDir, "names.log"), "gdn-gns names "+a.cfg.Zone)
	if err != nil {
		return fmt.Errorf("gns: open name table: %w", err)
	}
	a.table = tab
	for name, v := range tab.Live() {
		oid, err := ids.FromBytes(v)
		if c, cerr := canonicalName(name); err != nil || cerr != nil || c != name {
			return fmt.Errorf("gns: name table entry %q is not a canonical name and an OID", name)
		}
		a.names[name] = oid
		a.children.link(name, nil)
	}
	if len(a.names) == 0 {
		return nil
	}
	a.cfg.Logf("gns: recovered %d names from %s; resyncing the zone", len(a.names), a.cfg.StateDir)
	return a.ResyncZone()
}

// Addr returns the authority's RPC address.
func (a *Authority) Addr() string { return a.cfg.Addr }

// Close stops the authority. Pending updates are not flushed; restart
// recovery re-derives them from the durable name table.
func (a *Authority) Close() error {
	err := a.server.Close()
	if cerr := a.close(); err == nil {
		err = cerr
	}
	return err
}

func (a *Authority) close() error {
	a.clients.Close()
	if a.table == nil {
		return nil
	}
	return a.table.Close()
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
	canonical, err := canonicalName(name)
	if err != nil {
		return nil, err
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	if _, taken := a.names[canonical]; taken {
		return nil, fmt.Errorf("%w: %s", ErrExists, canonical)
	}
	if a.table != nil {
		if err := a.table.Put(canonical, oid[:]); err != nil {
			return nil, fmt.Errorf("gns: persist %s: %w", canonical, err)
		}
	}
	a.names[canonical] = oid
	a.stageTXT(canonical, dns.ClassIN, EncodeOIDRecord(oid))
	// The immediate parent additionally gets a package marker, so a
	// single listing query classifies this child as an object — even
	// when the entry chain already existed (the name was a directory
	// before it became a package too).
	a.stageTXT(parentDir(canonical), dns.ClassIN, EncodePkgRecord(lastLabel(canonical)))
	a.children.link(canonical, a.stageEntry)
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
	canonical, err := canonicalName(name)
	if err != nil {
		return nil, err
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	oid, ok := a.names[canonical]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, canonical)
	}
	if a.table != nil {
		if err := a.table.Delete(canonical); err != nil {
			return nil, fmt.Errorf("gns: persist removal of %s: %w", canonical, err)
		}
	}
	delete(a.names, canonical)
	a.stageTXT(canonical, dns.ClassNone, EncodeOIDRecord(oid))
	// The object is gone, so its package marker at the immediate parent
	// goes regardless of whether the name survives as a directory.
	a.stageTXT(parentDir(canonical), dns.ClassNone, EncodePkgRecord(lastLabel(canonical)))
	// Unlink from parent directories while they become empty. A name
	// that still has children (it is also a directory) or is itself
	// registered stays listed.
	for cur := canonical; cur != "/" && len(a.children[cur]) == 0; cur = parentDir(cur) {
		if _, isObject := a.names[cur]; isObject {
			break
		}
		dir, child := parentDir(cur), lastLabel(cur)
		delete(a.children[dir], child)
		if len(a.children[dir]) == 0 {
			delete(a.children, dir)
		}
		a.stageTXT(dir, dns.ClassNone, EncodeEntryRecord(child))
	}
	return nil, a.maybeFlushLocked(call)
}

// canonicalName validates an object name and returns its canonical
// form. The root directory is not an object name.
func canonicalName(name string) (string, error) {
	parts, err := SplitObjectName(name)
	if err != nil {
		return "", err
	}
	if len(parts) == 0 {
		return "", fmt.Errorf("%w: the root directory is not an object", ErrBadObjectName)
	}
	return "/" + strings.Join(parts, "/"), nil
}

// tree is the directory structure the registered names imply:
// directory -> the child labels it lists.
type tree map[string]map[string]bool

// link lists a canonical name in every directory above it, creating
// directories on demand, and reports each entry it adds to added
// (which may be nil). It stops at the first directory that already
// lists its child: the chain above exists.
func (t tree) link(name string, added func(dir, child string)) {
	for ; name != "/"; name = parentDir(name) {
		dir, child := parentDir(name), lastLabel(name)
		if t[dir][child] {
			return
		}
		if t[dir] == nil {
			t[dir] = make(map[string]bool)
		}
		t[dir][child] = true
		if added != nil {
			added(dir, child)
		}
	}
}

// recordTTL is the TTL for GNS records. The paper leans on the
// assumption that name→OID mappings are stable, so a generous TTL is
// appropriate; resolvers cache it.
const recordTTL = 300

// stageTXT stages one TXT record change at a canonical object name or
// one of its directories: class IN adds the record, class NONE deletes
// it. Such names always map into the zone.
func (a *Authority) stageTXT(name string, class dns.Class, data string) {
	dnsName, _ := NameToDNS(name, a.cfg.Zone)
	rr := dns.RR{Name: dnsName, Type: dns.TypeTXT, Class: class, Data: data}
	if class == dns.ClassIN {
		rr.TTL = recordTTL
	}
	a.pending = append(a.pending, rr)
}

func (a *Authority) stageEntry(dir, child string) {
	a.stageTXT(dir, dns.ClassIN, EncodeEntryRecord(child))
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
		respBody, cost, err := a.clients.Get(server).Call(obs.SpanContext{}, dns.OpDNS, body)
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

// ResyncZone re-stages every registered name, its package marker and
// its directory entries, bringing freshly initialized name servers to
// the authority's state.
func (a *Authority) ResyncZone() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	linked := make(tree)
	for name, oid := range a.names {
		a.stageTXT(name, dns.ClassIN, EncodeOIDRecord(oid))
		a.stageTXT(parentDir(name), dns.ClassIN, EncodePkgRecord(lastLabel(name)))
		linked.link(name, a.stageEntry)
	}
	return a.flushLocked(nil)
}

// parentDir returns the directory holding a canonical object name.
func parentDir(name string) string {
	if i := strings.LastIndexByte(name, '/'); i > 0 {
		return name[:i]
	}
	return "/"
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
