package repl

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gdn/internal/core"
	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/netsim"
	"gdn/internal/obs"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/wire"
)

// kvSem is a key-value semantics subobject used to observe replica
// convergence.
type kvSem struct {
	m map[string]string
}

func newKV() core.Semantics { return &kvSem{m: make(map[string]string)} }

func (k *kvSem) Invoke(inv core.Invocation) ([]byte, error) {
	r := wire.NewReader(inv.Args)
	switch inv.Method {
	case "set":
		key := r.Str()
		val := r.Str()
		if err := r.Done(); err != nil {
			return nil, err
		}
		k.m[key] = val
		return nil, nil
	case "get":
		key := r.Str()
		if err := r.Done(); err != nil {
			return nil, err
		}
		return []byte(k.m[key]), nil
	case "len":
		out := wire.NewWriter(4)
		out.Uint32(uint32(len(k.m)))
		return out.Bytes(), nil
	default:
		return nil, fmt.Errorf("kv: unknown method %q", inv.Method)
	}
}

func (k *kvSem) MarshalState() ([]byte, error) {
	keys := make([]string, 0, len(k.m))
	for key := range k.m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	w := wire.NewWriter(64)
	w.Count(len(keys))
	for _, key := range keys {
		w.Str(key)
		w.Str(k.m[key])
	}
	return w.Bytes(), nil
}

func (k *kvSem) UnmarshalState(b []byte) error {
	r := wire.NewReader(b)
	n := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		key := r.Str()
		m[key] = r.Str()
	}
	if err := r.Done(); err != nil {
		return err
	}
	k.m = m
	return nil
}

func setArgs(key, val string) []byte {
	w := wire.NewWriter(len(key) + len(val) + 8)
	w.Str(key)
	w.Str(val)
	return w.Bytes()
}

func getArgs(key string) []byte {
	w := wire.NewWriter(len(key) + 4)
	w.Str(key)
	return w.Bytes()
}

// fixture is a five-site world: one GLS hub, one "origin" region and
// two client regions, each with a dispatcher and runtime.
type fixture struct {
	t     testing.TB
	net   *netsim.Network
	tree  *gls.Tree
	sites []string
	rts   map[string]*core.Runtime
	disps map[string]*core.Dispatcher
	clock *virtualClock
	sess  map[string]*gls.ServerSession // per site; see register
}

type virtualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (vc *virtualClock) Now() time.Time {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.now
}

func (vc *virtualClock) Advance(d time.Duration) {
	vc.mu.Lock()
	vc.now = vc.now.Add(d)
	vc.mu.Unlock()
}

func newFixture(t testing.TB, auths map[string]*sec.Config) *fixture {
	t.Helper()
	f := &fixture{
		t:     t,
		net:   netsim.New(nil),
		sites: []string{"origin", "eu-client", "us-client"},
		rts:   make(map[string]*core.Runtime),
		disps: make(map[string]*core.Dispatcher),
		clock: &virtualClock{now: time.Unix(1_000_000, 0)},
		sess:  make(map[string]*gls.ServerSession),
	}
	f.net.AddSite("hub", "hub", "core")
	f.net.AddSite("origin", "nl", "eu")
	f.net.AddSite("eu-client", "de", "eu")
	f.net.AddSite("us-client", "ca", "us")

	var children []gls.DomainSpec
	for _, s := range f.sites {
		children = append(children, gls.Leaf("leaf-"+s, s))
	}
	tree, err := gls.Deploy(f.net, gls.DomainSpec{Name: "root", Sites: []string{"hub"}, Children: children})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	f.tree = tree

	reg := core.NewRegistry()
	reg.RegisterSemantics("kv/1", newKV)
	RegisterAll(reg)

	logf := testLogf(t)
	for _, s := range f.sites {
		res, err := tree.Resolver(s, "leaf-"+s)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { res.Close() })
		auth := auths[s]
		disp, err := core.NewDispatcher(f.net, s, s+":objects", auth, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { disp.Close() })
		f.disps[s] = disp
		rt := core.NewRuntime(core.RuntimeConfig{
			Site: s, Net: f.net, Resolver: res, Registry: reg,
			Auth: auth, Clock: f.clock.Now, Logf: logf,
		})
		t.Cleanup(func() { rt.Close() })
		f.rts[s] = rt
	}
	return f
}

// testLogf returns a Logf that writes to t's log until t and its
// cleanups have finished, and drops what a lingering goroutine logs
// after that, where t.Logf would panic.
func testLogf(t testing.TB) func(string, ...any) {
	var mu sync.Mutex
	ended := false
	t.Cleanup(func() {
		mu.Lock()
		ended = true
		mu.Unlock()
	})
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if !ended {
			t.Logf(format, args...)
		}
	}
}

// clients returns a fresh client table at site, closed with the test.
func (f *fixture) clients(site string) *rpc.Clients {
	c := rpc.NewClients(f.net, site)
	f.t.Cleanup(func() { c.Close() })
	return c
}

// peer reaches object oid's representative at addr from site, outside
// any runtime.
func (f *fixture) peer(site string, oid ids.OID, addr string) *core.PeerClient {
	return (&core.Env{OID: oid, Clients: f.clients(site)}).Dial(addr)
}

// replica creates a hosted representative at site and registers it in
// the location service.
func (f *fixture) replica(oid ids.OID, site, protocol, role string, params map[string]string, peers []gls.ContactAddress) (*core.LR, gls.ContactAddress) {
	f.t.Helper()
	lr, ca, err := f.rts[site].NewReplica(core.ReplicaSpec{
		OID: oid, Impl: "kv/1", Protocol: protocol, Role: role,
		Params: params, Peers: peers,
	}, f.disps[site])
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { lr.Close() })
	f.register(site, oid, ca)
	return lr, ca
}

// register attaches ca to oid in the GLS through site's registration
// session, opened on first use with a TTL no test outlives.
func (f *fixture) register(site string, oid ids.OID, ca gls.ContactAddress) {
	f.t.Helper()
	sess := f.sess[site]
	if sess == nil {
		var err error
		if sess, _, err = f.rts[site].Resolver().OpenSession(ca.Address, time.Hour); err != nil {
			f.t.Fatal(err)
		}
		f.sess[site] = sess
	}
	if _, _, err := sess.Attach(oid, ca); err != nil {
		f.t.Fatal(err)
	}
}

func (f *fixture) bind(site string, oid ids.OID) *core.LR {
	f.t.Helper()
	lr, _, err := f.rts[site].Bind(oid)
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { lr.Close() })
	return lr
}

func mustSet(t *testing.T, lr *core.LR, key, val string) time.Duration {
	t.Helper()
	_, cost, err := lr.Invoke("set", true, setArgs(key, val))
	if err != nil {
		t.Fatal(err)
	}
	return cost
}

func mustGet(t *testing.T, lr *core.LR, key string) (string, time.Duration) {
	t.Helper()
	out, cost, err := lr.Invoke("get", false, getArgs(key))
	if err != nil {
		t.Fatal(err)
	}
	return string(out), cost
}

func TestClientServerRoundTrip(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.New()
	f.replica(oid, "origin", ClientServer, RoleServer, nil, nil)

	client := f.bind("us-client", oid)
	if cost := mustSet(t, client, "gcc", "2.95"); cost <= 0 {
		t.Fatal("remote write must cost network traffic")
	}
	val, cost := mustGet(t, client, "gcc")
	if val != "2.95" {
		t.Fatalf("get = %q", val)
	}
	if cost <= 0 {
		t.Fatal("clientserver reads must travel to the server")
	}
}

func TestMasterSlaveReadsAreLocal(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.New()
	_, masterCA := f.replica(oid, "origin", MasterSlave, RoleMaster, nil, nil)
	f.replica(oid, "us-client", MasterSlave, RoleSlave, nil, []gls.ContactAddress{masterCA})

	// Write through a client near the master.
	euClient := f.bind("eu-client", oid)
	mustSet(t, euClient, "linux", "2.2")

	// The US client's GLS lookup finds its local slave; reads stay in
	// region and are cheaper than the EU client's read of the master.
	usClient := f.bind("us-client", oid)
	val, usCost := mustGet(t, usClient, "linux")
	if val != "2.2" {
		t.Fatalf("slave read = %q (state push missing?)", val)
	}
	_, euCost := mustGet(t, euClient, "linux")
	if usCost >= euCost*10 {
		t.Fatalf("slave read (%v) should not dwarf master read (%v)", usCost, euCost)
	}

	// Reads at the slave must not cross the wide area.
	before := f.net.Meter()
	mustGet(t, usClient, "linux")
	diff := f.net.Meter().Sub(before)
	if diff.Bytes[netsim.WideArea] != 0 {
		t.Fatalf("slave-local read crossed the wide area: %v", diff)
	}
}

func TestMasterSlaveWriteVisibleEverywhereOnAck(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.New()
	_, masterCA := f.replica(oid, "origin", MasterSlave, RoleMaster, nil, nil)
	f.replica(oid, "eu-client", MasterSlave, RoleSlave, nil, []gls.ContactAddress{masterCA})
	f.replica(oid, "us-client", MasterSlave, RoleSlave, nil, []gls.ContactAddress{masterCA})

	euClient := f.bind("eu-client", oid)
	usClient := f.bind("us-client", oid)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		mustSet(t, euClient, key, "v")
		if val, _ := mustGet(t, usClient, key); val != "v" {
			t.Fatalf("write %s not visible at remote slave immediately after ack", key)
		}
	}
}

func TestMasterSlaveWriteThroughSlaveForwards(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.New()
	_, masterCA := f.replica(oid, "origin", MasterSlave, RoleMaster, nil, nil)
	slave, _ := f.replica(oid, "us-client", MasterSlave, RoleSlave, nil, []gls.ContactAddress{masterCA})

	// Invoke a write directly on the slave representative: it must
	// forward to the master and the master's push must come back.
	if _, _, err := slave.Invoke("set", true, setArgs("x", "1")); err != nil {
		t.Fatal(err)
	}
	if val, _ := mustGet(t, slave, "x"); val != "1" {
		t.Fatalf("slave read after forwarded write = %q", val)
	}
	// The master saw it too.
	euClient := f.bind("eu-client", oid)
	if val, _ := mustGet(t, euClient, "x"); val != "1" {
		t.Fatalf("master missed forwarded write")
	}
}

func TestActiveReplicationConvergence(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.New()
	seqLR, seqCA := f.replica(oid, "origin", Active, RoleSequencer, nil, nil)
	peer1, _ := f.replica(oid, "eu-client", Active, RolePeer, nil, []gls.ContactAddress{seqCA})
	peer2, _ := f.replica(oid, "us-client", Active, RolePeer, nil, []gls.ContactAddress{seqCA})

	// Writes through different representatives all serialize through
	// the sequencer.
	mustSet(t, peer1, "a", "1")
	mustSet(t, peer2, "b", "2")
	mustSet(t, seqLR, "c", "3")

	for name, lr := range map[string]*core.LR{"sequencer": seqLR, "peer1": peer1, "peer2": peer2} {
		for key, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
			if got, _ := mustGet(t, lr, key); got != want {
				t.Fatalf("%s: %s = %q, want %q", name, key, got, want)
			}
		}
	}

	// Reads at peers are local.
	before := f.net.Meter()
	mustGet(t, peer2, "a")
	if diff := f.net.Meter().Sub(before); diff.TotalFrames() != 0 {
		t.Fatalf("peer read sent %d frames", diff.TotalFrames())
	}
}

func TestActivePeerGapRecovery(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.New()
	_, seqCA := f.replica(oid, "origin", Active, RoleSequencer, nil, nil)
	peer, peerCA := f.replica(oid, "eu-client", Active, RolePeer, nil, []gls.ContactAddress{seqCA})

	mustSet(t, peer, "a", "1")

	// Simulate a missed apply by injecting one with a version far
	// ahead: the peer must fall back to a full state transfer instead
	// of applying out of order.
	pc := f.peer("origin", oid, peerCA.Address)
	ghost := core.Invocation{Method: "set", Write: true, Args: setArgs("ghost", "x")}
	if _, _, err := pc.Call(obs.SpanContext{}, core.OpApply, applyBody(99, ghost)); err != nil {
		t.Fatal(err)
	}

	// The gap triggered resync from the sequencer: the ghost write must
	// NOT be applied, and real state must be intact.
	if val, _ := mustGet(t, peer, "ghost"); val != "" {
		t.Fatal("out-of-order apply executed instead of resync")
	}
	if val, _ := mustGet(t, peer, "a"); val != "1" {
		t.Fatal("resync lost state")
	}
}

func applyBody(version uint64, inv core.Invocation) []byte {
	return encodeApply(version, inv)
}

func TestCacheTTLModes(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.New()
	_, serverCA := f.replica(oid, "origin", ClientServer, RoleServer, nil, nil)

	// A cache in the US with a 60s TTL, under a virtual clock.
	cacheLR, _ := f.replica(oid, "us-client", Cache, RoleCache,
		map[string]string{"ttl": "60s"}, []gls.ContactAddress{serverCA})
	cache := cacheRepl(t, cacheLR)

	origin := f.bind("origin", oid)
	mustSet(t, origin, "pkg", "v1")

	// First read fills the cache (a miss), second is a pure hit.
	if val, cost := mustGet(t, cacheLR, "pkg"); val != "v1" || cost == 0 {
		t.Fatalf("fill read: val=%q cost=%v", val, cost)
	}
	if val, cost := mustGet(t, cacheLR, "pkg"); val != "v1" || cost != 0 {
		t.Fatalf("hit read: val=%q cost=%v", val, cost)
	}
	s := cache.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}

	// Expire without upstream change: revalidation, no state shipped.
	f.clock.Advance(61 * time.Second)
	if val, cost := mustGet(t, cacheLR, "pkg"); val != "v1" || cost == 0 {
		t.Fatalf("revalidate read: val=%q cost=%v", val, cost)
	}
	if s := cache.Stats(); s.Revalidations != 1 {
		t.Fatalf("stats = %+v", s)
	}

	// Upstream write, then expiry: the revalidation ships new state.
	mustSet(t, origin, "pkg", "v2")
	f.clock.Advance(61 * time.Second)
	if val, _ := mustGet(t, cacheLR, "pkg"); val != "v2" {
		t.Fatalf("stale read after TTL expiry: %q", val)
	}

	// Before expiry the cache may serve stale data — that is the
	// documented trade-off.
	mustSet(t, origin, "pkg", "v3")
	if val, _ := mustGet(t, cacheLR, "pkg"); val != "v2" {
		t.Fatalf("TTL cache read = %q, expected stale v2", val)
	}
}

func TestCacheInvalidationMode(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.New()
	_, serverCA := f.replica(oid, "origin", ClientServer, RoleServer, nil, nil)
	cacheLR, _ := f.replica(oid, "us-client", Cache, RoleCache,
		map[string]string{"mode": "invalidate"}, []gls.ContactAddress{serverCA})
	cache := cacheRepl(t, cacheLR)

	origin := f.bind("origin", oid)
	mustSet(t, origin, "pkg", "v1")
	if val, _ := mustGet(t, cacheLR, "pkg"); val != "v1" {
		t.Fatal("fill failed")
	}

	// The server's write pushes an invalidation; the next read refetches
	// and sees fresh data immediately — no TTL staleness window.
	mustSet(t, origin, "pkg", "v2")
	if val, _ := mustGet(t, cacheLR, "pkg"); val != "v2" {
		t.Fatalf("invalidation-mode cache served stale %q", val)
	}
	s := cache.Stats()
	if s.Invalidations == 0 {
		t.Fatalf("stats = %+v, want an invalidation", s)
	}
}

func TestCacheWriteThrough(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.New()
	f.replica(oid, "origin", ClientServer, RoleServer, nil, nil)
	// Bind the cache via the GLS so it discovers the server itself.
	cacheLR, _ := f.replica(oid, "us-client", Cache, RoleCache, nil,
		mustLookup(t, f, "us-client", oid))

	mustSet(t, cacheLR, "k", "v")
	// The write went upstream; a fresh client at the origin sees it.
	origin := f.bind("origin", oid)
	if val, _ := mustGet(t, origin, "k"); val != "v" {
		t.Fatalf("write-through lost: %q", val)
	}
	// And the cache itself rereads it correctly (dropped + refetched).
	if val, _ := mustGet(t, cacheLR, "k"); val != "v" {
		t.Fatalf("cache reread = %q", val)
	}
}

func mustLookup(t *testing.T, f *fixture, site string, oid ids.OID) []gls.ContactAddress {
	t.Helper()
	addrs, _, err := f.rts[site].Resolver().Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

func cacheRepl(t *testing.T, lr *core.LR) *CacheReplica {
	t.Helper()
	c, ok := lr.Replication().(*CacheReplica)
	if !ok {
		t.Fatalf("replication subobject is %T, want *CacheReplica", lr.Replication())
	}
	return c
}

func TestWriteAuthorizationEnforced(t *testing.T) {
	ca, err := sec.NewAuthority("gdn-root")
	if err != nil {
		t.Fatal(err)
	}
	mkAuth := func(role, id string) *sec.Config {
		creds, err := sec.NewCredentials(ca, sec.Principal(role, id), role)
		if err != nil {
			t.Fatal(err)
		}
		// GDN hosts authenticate both ways (paper §6.3, Figure 4 link 3).
		return &sec.Config{Creds: creds, TrustAnchors: ca.Anchors(), RequireClientAuth: true}
	}
	auths := map[string]*sec.Config{
		"origin":    mkAuth(sec.RoleGOS, "origin"),
		"eu-client": mkAuth(sec.RoleModerator, "alice"),
		"us-client": mkAuth(sec.RoleUser, "mallory"),
	}
	f := newFixture(t, auths)
	oid := ids.New()
	f.replica(oid, "origin", ClientServer, RoleServer, nil, nil)

	moderator := f.bind("eu-client", oid)
	if _, _, err := moderator.Invoke("set", true, setArgs("k", "v")); err != nil {
		t.Fatalf("moderator write: %v", err)
	}

	user := f.bind("us-client", oid)
	if _, _, err := user.Invoke("set", true, setArgs("k", "evil")); err == nil {
		t.Fatal("user write must be rejected")
	} else if !strings.Contains(err.Error(), "not authorized") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Reads are open to authenticated users.
	if val, _ := mustGet(t, user, "k"); val != "v" {
		t.Fatalf("user read = %q", val)
	}
}

func TestConvergenceUnderConcurrentWrites(t *testing.T) {
	// Property: after racing writers through different proxies, all
	// representatives of a master/slave and an active object hold
	// identical state.
	for _, proto := range []string{MasterSlave, Active} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			f := newFixture(t, nil)
			oid := ids.New()
			var headRole, tailRole string
			switch proto {
			case MasterSlave:
				headRole, tailRole = RoleMaster, RoleSlave
			case Active:
				headRole, tailRole = RoleSequencer, RolePeer
			}
			headLR, headCA := f.replica(oid, "origin", proto, headRole, nil, nil)
			tail1, _ := f.replica(oid, "eu-client", proto, tailRole, nil, []gls.ContactAddress{headCA})
			tail2, _ := f.replica(oid, "us-client", proto, tailRole, nil, []gls.ContactAddress{headCA})

			writers := []*core.LR{headLR, tail1, tail2}
			var wg sync.WaitGroup
			rnd := rand.New(rand.NewSource(11))
			for w := 0; w < 3; w++ {
				for i := 0; i < 10; i++ {
					wg.Add(1)
					key := fmt.Sprintf("w%d-k%d", w, rnd.Intn(5))
					go func(lr *core.LR, key string, i int) {
						defer wg.Done()
						if _, _, err := lr.Invoke("set", true, setArgs(key, fmt.Sprint(i))); err != nil {
							t.Error(err)
						}
					}(writers[w], key, i)
				}
			}
			wg.Wait()

			states := make([][]byte, len(writers))
			for i, lr := range writers {
				st, err := lr.Semantics().MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				states[i] = st
			}
			for i := 1; i < len(states); i++ {
				if !reflect.DeepEqual(states[0], states[i]) {
					t.Fatalf("replica %d diverged from head", i)
				}
			}
		})
	}
}

func TestMaintainerRoleScopedToPackage(t *testing.T) {
	// The paper's planned fourth group (§2): a maintainer manages the
	// contents of packages that list them — and nothing else.
	ca, err := sec.NewAuthority("gdn-root")
	if err != nil {
		t.Fatal(err)
	}
	mkAuth := func(role, id string) *sec.Config {
		creds, err := sec.NewCredentials(ca, sec.Principal(role, id), role)
		if err != nil {
			t.Fatal(err)
		}
		return &sec.Config{Creds: creds, TrustAnchors: ca.Anchors(), RequireClientAuth: true}
	}
	bobPrincipal := sec.Principal(sec.RoleMaintainer, "bob")
	auths := map[string]*sec.Config{
		"origin":    mkAuth(sec.RoleGOS, "origin"),
		"eu-client": mkAuth(sec.RoleMaintainer, "bob"),
	}
	f := newFixture(t, auths)

	// Package A lists bob as maintainer; package B does not.
	oidA, oidB := ids.New(), ids.New()
	f.replica(oidA, "origin", ClientServer, RoleServer,
		map[string]string{"maintainers": bobPrincipal}, nil)
	f.replica(oidB, "origin", ClientServer, RoleServer, nil, nil)

	bobA := f.bind("eu-client", oidA)
	if _, _, err := bobA.Invoke("set", true, setArgs("news", "fixed a bug")); err != nil {
		t.Fatalf("maintainer write to own package: %v", err)
	}
	bobB := f.bind("eu-client", oidB)
	if _, _, err := bobB.Invoke("set", true, setArgs("news", "hijack")); err == nil {
		t.Fatal("maintainer write to a foreign package must be rejected")
	}
	// Reads everywhere are fine.
	if val, _ := mustGet(t, bobB, "news"); val != "" {
		t.Fatalf("foreign package modified: %q", val)
	}
}

// TestCacheSubscriptionLeaseRepairsForgottenSubscription: a parent that
// restarts (or sat behind a partition) forgets its subscriber table; a
// pure invalidate-mode cache then serves stale state forever. With a
// subscription lease ("resub") the cache re-confirms within one lease —
// revalidating by version and re-subscribing — so the next upstream
// write invalidates it again.
func TestCacheSubscriptionLeaseRepairsForgottenSubscription(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.New()
	srvLR, serverCA := f.replica(oid, "origin", ClientServer, RoleServer, nil, nil)
	cacheLR, _ := f.replica(oid, "us-client", Cache, RoleCache,
		map[string]string{"mode": "invalidate", "resub": "30s"}, []gls.ContactAddress{serverCA})
	cache := cacheRepl(t, cacheLR)

	origin := f.bind("origin", oid)
	mustSet(t, origin, "pkg", "v1")
	if val, _ := mustGet(t, cacheLR, "pkg"); val != "v1" {
		t.Fatal("fill failed")
	}

	// The server "restarts": its in-memory subscriber table is gone,
	// and the cache has no way to know.
	srv := srvLR.Replication().(*csServer)
	srv.mu.Lock()
	srv.subs = make(map[string]subscriber)
	srv.mu.Unlock()

	// A write now reaches no subscriber; inside the lease the cache
	// serves its stale copy (the documented trade-off)...
	mustSet(t, origin, "pkg", "v2")
	if val, _ := mustGet(t, cacheLR, "pkg"); val != "v1" {
		t.Fatalf("cache read = %q, expected stale v1 inside the lease", val)
	}

	// ...but once the lease runs out, the next read revalidates, picks
	// up v2 and re-subscribes.
	f.clock.Advance(31 * time.Second)
	if val, _ := mustGet(t, cacheLR, "pkg"); val != "v2" {
		t.Fatalf("cache read after lease expiry = %q, want revalidated v2", val)
	}

	// The repaired subscription delivers invalidations again.
	mustSet(t, origin, "pkg", "v3")
	if val, _ := mustGet(t, cacheLR, "pkg"); val != "v3" {
		t.Fatalf("cache read after repair = %q, want v3", val)
	}
	if s := cache.Stats(); s.Invalidations == 0 {
		t.Fatalf("stats = %+v, want an invalidation after the repaired subscription", s)
	}
}
