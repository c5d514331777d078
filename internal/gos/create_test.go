package gos

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gdn/internal/core"
	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/pkgobj"
	"gdn/internal/repl"
	"gdn/internal/transport"
)

// gatedNet dials through the network underneath. While its gate is
// shut, every send on a connection it dialled waits for the gate to
// open, and each waiting send is announced on held.
type gatedNet struct {
	transport.Network
	held chan struct{}

	mu   sync.Mutex
	gate chan struct{} // nil while open
}

func (g *gatedNet) Dial(from, addr string) (transport.Conn, error) {
	c, err := g.Network.Dial(from, addr)
	if err != nil {
		return nil, err
	}
	return gatedConn{c, g}, nil
}

func (g *gatedNet) shut() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *gatedNet) open() {
	g.mu.Lock()
	close(g.gate)
	g.gate = nil
	g.mu.Unlock()
}

func (g *gatedNet) pass() {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		select {
		case g.held <- struct{}{}:
		default:
		}
		<-gate
	}
}

type gatedConn struct {
	transport.Conn
	g *gatedNet
}

func (c gatedConn) Send(p []byte) error {
	c.g.pass()
	return c.Conn.Send(p)
}

func (c gatedConn) SendFrames(frames []transport.Frame) (int64, error) {
	c.g.pass()
	return c.Conn.SendFrames(frames)
}

// gateLocationService gives site's runtime a resolver whose traffic
// passes a gate the test controls.
func (f *fixture) gateLocationService(site, leaf string) *gatedNet {
	f.t.Helper()
	ref, ok := f.tree.Ref(leaf)
	if !ok {
		f.t.Fatalf("no GLS domain %q", leaf)
	}
	g := &gatedNet{Network: f.net, held: make(chan struct{}, 1)}
	res := gls.NewResolver(g, site, ref)
	f.t.Cleanup(func() { res.Close() })
	rt := core.NewRuntime(core.RuntimeConfig{Site: site, Net: f.net, Resolver: res, Registry: f.reg})
	f.t.Cleanup(func() { rt.Close() })
	f.rts[site] = rt
	return g
}

// assertNothingLeft checks that srv holds no replica, checkpoint or
// pin of oid, that the location service does not list srv's replica
// endpoint for it, and that a restart from stateDir hosts nothing.
func (f *fixture) assertNothingLeft(srv *Server, stateDir string, oid ids.OID) {
	f.t.Helper()
	if n := srv.Hosted(); n != 0 {
		f.t.Fatalf("hosted = %d, want 0", n)
	}
	if srv.ckpts.Has(oid[:]) {
		f.t.Fatal("a checkpoint of the replica survived")
	}
	srv.mu.Lock()
	pins := len(srv.pins)
	srv.mu.Unlock()
	if pins != 0 {
		f.t.Fatalf("%d objects keep checkpoint pins", pins)
	}
	cas, _, err := f.rts["mod"].Resolver().Lookup(oid)
	if err != nil && !errors.Is(err, gls.ErrNotFound) {
		f.t.Fatal(err)
	}
	for _, ca := range cas {
		if ca.Address == srv.ObjAddr() {
			f.t.Fatalf("the location service still lists %s", ca.Address)
		}
	}
	srv.Close()
	if n := f.restartGOS(srv.cfg.Site, stateDir).Hosted(); n != 0 {
		f.t.Fatalf("a restart recovered %d replicas, want 0", n)
	}
}

// TestFailedCheckpointFailsCreate: a create whose checkpoint put fails
// is refused, and undoes its attach, so a restart forgets nothing that
// was acknowledged.
func TestFailedCheckpointFailsCreate(t *testing.T) {
	f := newFixture(t, nil)
	stateDir := t.TempDir()
	srv := f.startGOS("eu-gos", stateDir, nil)
	cl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer cl.Close()

	srv.ckpts.Close() // every later Put fails
	oid := ids.Derive("unwritable checkpoint")
	if _, _, _, err := cl.CreateReplica(CreateRequest{
		OID: oid, Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
	}); err == nil {
		t.Fatal("create acknowledged without a durable checkpoint")
	}
	f.assertNothingLeft(srv, stateDir, oid)
}

// TestFailedAttachLeavesNothingToRecover: a create whose location-
// service attach fails deletes the checkpoint written beside it.
func TestFailedAttachLeavesNothingToRecover(t *testing.T) {
	f := newFixture(t, nil)
	stateDir := t.TempDir()
	srv := f.startGOS("eu-gos", stateDir, nil)
	cl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer cl.Close()

	// The leaf cannot install the forwarding pointer at the root, so
	// the attach of a new object fails.
	f.net.Partition("eu-gos", "hub")
	oid := ids.Derive("unregistrable")
	_, _, _, err := cl.CreateReplica(CreateRequest{
		OID: oid, Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
	})
	f.net.Heal("eu-gos", "hub")
	if err == nil {
		t.Fatal("create acknowledged without a registration")
	}
	f.assertNothingLeft(srv, stateDir, oid)
}

// TestRemoveRacingTailCreateLeavesNothing: a remove that takes a tail
// replica while its create is still attaching waits for the create and
// then retires it; the create fails, and neither a checkpoint nor a
// location-service entry is left.
func TestRemoveRacingTailCreateLeavesNothing(t *testing.T) {
	f := newFixture(t, nil)
	gate := f.gateLocationService("eu-gos", "eu")
	f.startGOS("us-gos", "", nil)
	stateDir := t.TempDir()
	srv := f.startGOS("eu-gos", stateDir, nil)
	usCl := NewClient(f.net, "mod", "us-gos:gos-cmd", nil)
	defer usCl.Close()
	euCl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer euCl.Close()

	oid, masterCA, _, err := usCl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.MasterSlave, Role: repl.RoleMaster,
	})
	if err != nil {
		t.Fatal(err)
	}

	gate.shut()
	created := make(chan error, 1)
	go func() {
		_, _, _, err := euCl.CreateReplica(CreateRequest{
			OID: oid, Impl: pkgobj.Impl, Protocol: repl.MasterSlave, Role: repl.RoleSlave,
			Peers: []gls.ContactAddress{masterCA},
		})
		created <- err
	}()
	<-gate.held // the tail's attach is on its way
	if n := srv.Hosted(); n != 1 {
		t.Fatalf("hosted = %d while the create attaches, want 1", n)
	}
	removed := make(chan error, 1)
	go func() {
		_, err := euCl.RemoveReplica(oid)
		removed <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.Hosted() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the remove never took the replica")
		}
	}
	gate.open()
	if err := <-removed; err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := <-created; err == nil {
		t.Fatal("a create that lost to a remove was acknowledged")
	}
	f.assertNothingLeft(srv, stateDir, oid)

	// The master is untouched.
	cas, _, err := f.rts["mod"].Resolver().Lookup(oid)
	if err != nil || len(cas) != 1 || cas[0] != masterCA {
		t.Fatalf("lookup = %v, %v; want only the master", cas, err)
	}
}
