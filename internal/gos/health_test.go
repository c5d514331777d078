package gos

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"gdn/internal/core"
	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/netsim"
	"gdn/internal/pkgobj"
	"gdn/internal/repl"
	"gdn/internal/store"
)

// Replica-health tests: leases age dead servers out of the location
// service, heartbeats keep live ones in, and chronic scrub corruption
// drains (then heals and undrains) a server's replicas.

type healthClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *healthClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *healthClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// healthFixture is a world whose sites all attach to one shared leaf
// directory node (at the hub), so every replica of an object lands in
// one GLS record — the shape intra-region failover and drain filtering
// operate on. The tree runs on a controllable clock with the janitor
// disabled; tests drive expiry explicitly.
type healthFixture struct {
	t     *testing.T
	net   *netsim.Network
	tree  *gls.Tree
	clock *healthClock
	reg   *core.Registry
	rts   map[string]*core.Runtime
}

func newHealthFixture(t *testing.T) *healthFixture {
	t.Helper()
	f := &healthFixture{
		t:     t,
		net:   netsim.New(nil),
		clock: &healthClock{now: time.Unix(1_000_000_000, 0)},
		rts:   make(map[string]*core.Runtime),
	}
	f.net.AddSite("hub", "hub", "core")
	f.net.AddSite("eu-gos", "nl", "eu")
	f.net.AddSite("us-gos", "ca", "us")
	f.net.AddSite("mod", "de", "eu")

	tree, err := gls.Deploy(f.net, gls.DomainSpec{
		Name: "root", Sites: []string{"hub"},
		Children: []gls.DomainSpec{gls.Leaf("lan", "hub")},
	}, gls.WithTreeClock(f.clock.Now), gls.WithTreeSweep(-1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	f.tree = tree

	f.reg = core.NewRegistry()
	pkgobj.Register(f.reg)
	repl.RegisterAll(f.reg)

	for _, site := range []string{"eu-gos", "us-gos", "mod"} {
		res, err := tree.Resolver(site, "lan")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { res.Close() })
		rt := core.NewRuntime(core.RuntimeConfig{
			Site: site, Net: f.net, Resolver: res, Registry: f.reg,
		})
		t.Cleanup(func() { rt.Close() })
		f.rts[site] = rt
	}
	return f
}

func (f *healthFixture) startGOS(site string, cfg Config) *Server {
	f.t.Helper()
	cfg.Site = site
	cfg.CmdAddr = site + ":gos-cmd"
	cfg.ObjAddr = site + ":gos-obj"
	cfg.Runtime = f.rts[site]
	srv, err := Start(f.net, cfg)
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { srv.Close() })
	return srv
}

func (f *healthFixture) lookup(oid ids.OID) ([]gls.ContactAddress, error) {
	addrs, _, err := f.rts["mod"].Resolver().Lookup(oid)
	return addrs, err
}

func TestCrashedServerLeaseAgesOut(t *testing.T) {
	f := newHealthFixture(t)
	srv := f.startGOS("eu-gos", Config{LeaseTTL: 10 * time.Second})

	cl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer cl.Close()
	oid, _, _, err := cl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if addrs, err := f.lookup(oid); err != nil || len(addrs) != 1 {
		t.Fatalf("lookup while server lives: %v (%d addrs)", err, len(addrs))
	}

	// Heartbeats renew the lease past its original expiry.
	f.clock.Advance(8 * time.Second)
	srv.Heartbeat()
	f.clock.Advance(8 * time.Second)
	if addrs, err := f.lookup(oid); err != nil || len(addrs) != 1 {
		t.Fatalf("lookup after renewal: %v (%d addrs)", err, len(addrs))
	}

	// The server dies (Close keeps registrations, like a crash); one
	// TTL later the replica has vanished from fresh lookups — no more
	// contact addresses pointing at a corpse.
	srv.Close()
	f.clock.Advance(11 * time.Second)
	if _, err := f.lookup(oid); !errors.Is(err, gls.ErrNotFound) {
		t.Fatalf("lookup one TTL after crash = %v, want ErrNotFound", err)
	}
}

// TestDefaultConfigRegistersOnlyThroughSession: without a LeaseTTL (or
// with a negative one) a server still registers every replica through
// its one registration session, so a crash ages them out within the
// default TTL — there is no permanent-registration mode.
func TestDefaultConfigRegistersOnlyThroughSession(t *testing.T) {
	for _, ttl := range []time.Duration{0, -time.Second} {
		f := newHealthFixture(t)
		srv := f.startGOS("eu-gos", Config{LeaseTTL: ttl})
		cl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
		oid, _, _, err := cl.CreateReplica(CreateRequest{
			Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
		})
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		leaf := f.tree.Nodes("lan")[0]
		if got := leaf.Sessions(); got != 1 {
			t.Fatalf("LeaseTTL %v: %d sessions at the leaf, want 1", ttl, got)
		}
		srv.Close() // crash
		f.clock.Advance(defaultLeaseTTL + time.Second)
		if _, err := f.lookup(oid); !errors.Is(err, gls.ErrNotFound) {
			t.Fatalf("LeaseTTL %v: lookup one default TTL after crash = %v, want ErrNotFound", ttl, err)
		}
	}
}

// TestHeartbeatIsOneRenewalForManyReplicas pins the control-plane
// contract of registration sessions: a server hosting N replicas costs
// the location service O(1) RPCs per heartbeat interval, not O(N) —
// the renewal touches the session, never the entries.
func TestHeartbeatIsOneRenewalForManyReplicas(t *testing.T) {
	f := newHealthFixture(t)
	srv := f.startGOS("eu-gos", Config{LeaseTTL: 30 * time.Second})

	cl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer cl.Close()
	const replicas = 24
	var oids []ids.OID
	for i := 0; i < replicas; i++ {
		oid, _, _, err := cl.CreateReplica(CreateRequest{
			Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
		})
		if err != nil {
			t.Fatalf("create replica %d: %v", i, err)
		}
		oids = append(oids, oid)
	}

	leaf := f.tree.Nodes("lan")[0]
	before := leaf.Stats()
	const beats = 4
	for i := 0; i < beats; i++ {
		f.clock.Advance(10 * time.Second)
		srv.Heartbeat()
	}
	after := leaf.Stats()
	if got := after.Inserts - before.Inserts; got != 0 {
		t.Fatalf("heartbeats performed %d per-replica inserts, want 0", got)
	}
	if got := after.SessionRenews - before.SessionRenews; got != beats {
		t.Fatalf("SessionRenews delta = %d, want %d (one per heartbeat)", got, beats)
	}
	// The renewals actually kept all the replicas alive.
	for _, oid := range []ids.OID{oids[0], oids[replicas-1]} {
		if addrs, err := f.lookup(oid); err != nil || len(addrs) != 1 {
			t.Fatalf("lookup after heartbeats: %v (%d addrs)", err, len(addrs))
		}
	}
	// And a removed replica leaves the session's re-attach set: a later
	// renewal-driven re-attach cannot resurrect it.
	if _, err := cl.RemoveReplica(oids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.lookup(oids[0]); !errors.Is(err, gls.ErrNotFound) {
		t.Fatalf("lookup of removed replica = %v, want ErrNotFound", err)
	}
}

func TestChronicScrubCorruptionDrainsThenHeals(t *testing.T) {
	f := newHealthFixture(t)
	stateDir := t.TempDir()
	// ScrubEvery < 0 disables the background loop; the test drives
	// passes by hand. DrainAfter 1: the first quarantined chunk is
	// chronic enough.
	master := f.startGOS("eu-gos", Config{StateDir: stateDir, ScrubEvery: -1, DrainAfter: 1})
	f.startGOS("us-gos", Config{})

	// A master/slave pair: the master's store holds the content on
	// disk (scrubbable), the slave is the healthy alternative lookups
	// should keep returning.
	mcl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer mcl.Close()
	oid, masterCA, _, err := mcl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.MasterSlave, Role: repl.RoleMaster,
	})
	if err != nil {
		t.Fatal(err)
	}

	content := bytes.Repeat([]byte("replicated bits "), 64)
	lr, _, err := f.rts["mod"].Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	stub := pkgobj.NewStub(lr)
	if err := stub.AddFile("blob", content); err != nil {
		t.Fatal(err)
	}

	scl := NewClient(f.net, "mod", "us-gos:gos-cmd", nil)
	defer scl.Close()
	if _, _, _, err := scl.CreateReplica(CreateRequest{
		OID: oid, Impl: pkgobj.Impl, Protocol: repl.MasterSlave, Role: repl.RoleSlave,
		Peers: []gls.ContactAddress{masterCA},
	}); err != nil {
		t.Fatal(err)
	}
	stub.Close()
	if addrs, err := f.lookup(oid); err != nil || len(addrs) != 2 {
		t.Fatalf("lookup with both replicas: %v (%d addrs)", err, len(addrs))
	}

	// Silent media corruption on the master's disk: flip a byte of the
	// content chunk where its segment file holds it.
	ref := store.RefOf(content)
	flipChunkByte(t, master.Chunks(), ref, 0)

	// The scrub pass quarantines the chunk, crosses the chronic
	// threshold and drains the master: fresh lookups now return only
	// the slave, without any registration being deleted.
	res := master.ScrubPass()
	if len(res.Quarantined) != 1 {
		t.Fatalf("quarantined = %v, want the corrupted chunk", res.Quarantined)
	}
	if !master.Drained() {
		t.Fatal("server must drain after chronic corruption")
	}
	addrs, err := f.lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0].Address != "us-gos:gos-obj" {
		t.Fatalf("addrs while drained = %v, want just the slave", addrs)
	}

	// Repair: a verified re-Put of the content heals the quarantined
	// ref (in production the next delta sync does this); the following
	// clean full pass undrains the server.
	if _, err := master.Chunks().Put(content); err != nil {
		t.Fatal(err)
	}
	if res := master.ScrubPass(); len(res.Quarantined) != 0 || !res.Wrapped {
		t.Fatalf("healing pass = %+v, want clean wrap", res)
	}
	if master.Drained() {
		t.Fatal("server must undrain after a clean wrap with no lost refs")
	}
	addrs, err = f.lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 {
		t.Fatalf("addrs after heal = %v, want both replicas", addrs)
	}
}

// TestDrainedServerRestartsUndrained: a drained server crashes, and
// the process restarted on its state directory recovers its replica
// through a fresh registration session. The drain belonged to the dead
// session, so the replica is back in lookups without an undrain.
func TestDrainedServerRestartsUndrained(t *testing.T) {
	f := newHealthFixture(t)
	cfg := Config{StateDir: t.TempDir(), ScrubEvery: -1}
	master := f.startGOS("eu-gos", cfg)
	slave := f.startGOS("us-gos", Config{})

	mcl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer mcl.Close()
	oid, masterCA, _, err := mcl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.MasterSlave, Role: repl.RoleMaster,
	})
	if err != nil {
		t.Fatal(err)
	}
	scl := NewClient(f.net, "mod", "us-gos:gos-cmd", nil)
	defer scl.Close()
	if _, _, _, err := scl.CreateReplica(CreateRequest{
		OID: oid, Impl: pkgobj.Impl, Protocol: repl.MasterSlave, Role: repl.RoleSlave,
		Peers: []gls.ContactAddress{masterCA},
	}); err != nil {
		t.Fatal(err)
	}

	// What the scrub policy does on chronic corruption.
	master.setDrain(true)
	if addrs, err := f.lookup(oid); err != nil || len(addrs) != 1 || addrs[0].Address != "us-gos:gos-obj" {
		t.Fatalf("addrs while drained = %v (%v), want just the slave", addrs, err)
	}

	// Crash, restart on the same state, and heartbeat past the dead
	// session's lease.
	master.Close()
	restarted := f.startGOS("eu-gos", cfg)
	for i := 0; i < 4; i++ {
		f.clock.Advance(10 * time.Second)
		restarted.Heartbeat()
		slave.Heartbeat()
	}
	if restarted.Drained() {
		t.Fatal("restarted server reports itself drained")
	}
	if addrs, err := f.lookup(oid); err != nil || len(addrs) != 2 {
		t.Fatalf("addrs after restart = %v (%v), want both replicas", addrs, err)
	}
}
