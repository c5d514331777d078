package gos

import (
	"bytes"
	"strings"
	"testing"

	"gdn/internal/core"
	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/netsim"
	"gdn/internal/pkgobj"
	"gdn/internal/repl"
	"gdn/internal/sec"
)

// fixture: a two-region world with a GLS tree and two object servers.
type fixture struct {
	t    *testing.T
	net  *netsim.Network
	tree *gls.Tree
	reg  *core.Registry
	rts  map[string]*core.Runtime
}

func newFixture(t *testing.T, auths map[string]*sec.Config) *fixture {
	t.Helper()
	f := &fixture{
		t:   t,
		net: netsim.New(nil),
		rts: make(map[string]*core.Runtime),
	}
	f.net.AddSite("hub", "hub", "core")
	f.net.AddSite("eu-gos", "nl", "eu")
	f.net.AddSite("us-gos", "ca", "us")
	f.net.AddSite("mod", "de", "eu")

	tree, err := gls.Deploy(f.net, gls.DomainSpec{
		Name: "root", Sites: []string{"hub"},
		Children: []gls.DomainSpec{
			gls.Leaf("eu", "eu-gos"),
			gls.Leaf("us", "us-gos"),
			gls.Leaf("eu2", "mod"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	f.tree = tree

	f.reg = core.NewRegistry()
	pkgobj.Register(f.reg)
	repl.RegisterAll(f.reg)

	for site, leaf := range map[string]string{"eu-gos": "eu", "us-gos": "us", "mod": "eu2"} {
		res, err := tree.Resolver(site, leaf)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { res.Close() })
		rt := core.NewRuntime(core.RuntimeConfig{
			Site: site, Net: f.net, Resolver: res, Registry: f.reg,
			Auth: auths[site],
		})
		t.Cleanup(func() { rt.Close() })
		f.rts[site] = rt
	}
	return f
}

func (f *fixture) startGOS(site, stateDir string, auth *sec.Config) *Server {
	f.t.Helper()
	srv, err := Start(f.net, Config{
		Site:     site,
		CmdAddr:  site + ":gos-cmd",
		ObjAddr:  site + ":gos-obj",
		Runtime:  f.rts[site],
		StateDir: stateDir,
		Auth:     auth,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { srv.Close() })
	return srv
}

func TestCreateFirstReplicaAllocatesOID(t *testing.T) {
	f := newFixture(t, nil)
	f.startGOS("eu-gos", "", nil)

	cl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer cl.Close()

	oid, ca, cost, err := cl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if oid.IsNil() {
		t.Fatal("create-first-replica must allocate an OID")
	}
	if ca.Address != "eu-gos:gos-obj" || ca.Protocol != repl.ClientServer {
		t.Fatalf("contact address = %+v", ca)
	}
	if cost <= 0 {
		t.Fatal("creation must report GLS registration cost")
	}

	// The replica is discoverable and usable through a normal bind.
	lr, _, err := f.rts["mod"].Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Close()
	stub := pkgobj.NewStub(lr)
	if err := stub.AddFile("README", []byte("gcc")); err != nil {
		t.Fatal(err)
	}
	data, err := stub.GetFileContents("README")
	if err != nil || string(data) != "gcc" {
		t.Fatalf("read back = %q, %v", data, err)
	}
}

func TestCreateSecondReplicaAndReplication(t *testing.T) {
	f := newFixture(t, nil)
	f.startGOS("eu-gos", "", nil)
	f.startGOS("us-gos", "", nil)

	euCl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer euCl.Close()
	usCl := NewClient(f.net, "mod", "us-gos:gos-cmd", nil)
	defer usCl.Close()

	// Master in the EU (the paper's "create first replica" step) ...
	oid, masterCA, _, err := euCl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.MasterSlave, Role: repl.RoleMaster,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ... then "bind to DSO <OID>, create replica" at the US server.
	oid2, _, _, err := usCl.CreateReplica(CreateRequest{
		OID: oid, Impl: pkgobj.Impl, Protocol: repl.MasterSlave, Role: repl.RoleSlave,
		Peers: []gls.ContactAddress{masterCA},
	})
	if err != nil {
		t.Fatal(err)
	}
	if oid2 != oid {
		t.Fatal("second replica must keep the object identifier")
	}

	// A moderator writes through a bind; a US client reads from its
	// local slave.
	modLR, _, err := f.rts["mod"].Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	defer modLR.Close()
	if err := pkgobj.NewStub(modLR).AddFile("f", []byte("content")); err != nil {
		t.Fatal(err)
	}

	usLR, _, err := f.rts["us-gos"].Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	defer usLR.Close()
	data, err := pkgobj.NewStub(usLR).GetFileContents("f")
	if err != nil || string(data) != "content" {
		t.Fatalf("slave read = %q, %v", data, err)
	}
}

func TestRemoveReplicaDeregisters(t *testing.T) {
	f := newFixture(t, nil)
	f.startGOS("eu-gos", "", nil)
	cl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer cl.Close()

	oid, _, _, err := cl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RemoveReplica(oid); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.rts["mod"].Bind(oid); err == nil {
		t.Fatal("bind after removal must fail")
	}
	if _, err := cl.RemoveReplica(oid); err == nil {
		t.Fatal("double removal must fail")
	}
}

func TestListReplicas(t *testing.T) {
	f := newFixture(t, nil)
	srv := f.startGOS("eu-gos", "", nil)
	cl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer cl.Close()

	for i := 0; i < 3; i++ {
		if _, _, _, err := cl.CreateReplica(CreateRequest{
			Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
		}); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := cl.ListReplicas()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 || srv.Hosted() != 3 {
		t.Fatalf("replicas = %d / hosted = %d", len(infos), srv.Hosted())
	}
	for _, info := range infos {
		if info.Impl != pkgobj.Impl || info.Role != repl.RoleServer {
			t.Fatalf("info = %+v", info)
		}
	}
}

func TestCrashRecoveryRestoresStateAndRegistration(t *testing.T) {
	f := newFixture(t, nil)
	stateDir := t.TempDir()
	first := f.startGOS("eu-gos", stateDir, nil)

	cl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	oid, _, _, err := cl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Fill with content, checkpoint, then crash.
	lr, _, err := f.rts["mod"].Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	stub := pkgobj.NewStub(lr)
	payload := bytes.Repeat([]byte("data"), 10_000)
	if err := stub.AddFile("pkg.tar", payload); err != nil {
		t.Fatal(err)
	}
	if err := cl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	lr.Close()
	cl.Close()
	first.Close() // crash

	srv2 := f.restartGOS("eu-gos", stateDir)
	if srv2.Hosted() != 1 {
		t.Fatalf("recovered %d replicas, want 1", srv2.Hosted())
	}

	// The object answers again at the same address with its state.
	lr2, _, err := f.rts["mod"].Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	defer lr2.Close()
	data, err := pkgobj.NewStub(lr2).GetFileContents("pkg.tar")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("recovered state differs")
	}
}

// restartGOS simulates a reboot: close the old server (the fixture's
// cleanup will find it already closed) and start a fresh one on the
// same addresses and state directory.
func (f *fixture) restartGOS(site, stateDir string) *Server {
	f.t.Helper()
	// The old listener must be gone before the address can be reused;
	// tests call Close (crash) or Shutdown (orderly) before restarting.
	srv, err := Start(f.net, Config{
		Site:     site,
		CmdAddr:  site + ":gos-cmd2",
		ObjAddr:  site + ":gos-obj",
		Runtime:  f.rts[site],
		StateDir: stateDir,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { srv.Close() })
	return srv
}

func TestUncheckpointedWritesAreLostOnCrash(t *testing.T) {
	// Negative space of persistence: state written after the last
	// checkpoint does not survive — documenting the paper's model where
	// replicas "save their state during a reboot" (orderly), not
	// continuously.
	f := newFixture(t, nil)
	stateDir := t.TempDir()
	first := f.startGOS("eu-gos", stateDir, nil)

	cl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	oid, _, _, err := cl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
	})
	if err != nil {
		t.Fatal(err)
	}
	lr, _, err := f.rts["mod"].Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	stub := pkgobj.NewStub(lr)
	if err := stub.AddFile("before", []byte("checkpointed")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := stub.AddFile("after", []byte("lost")); err != nil {
		t.Fatal(err)
	}
	lr.Close()
	cl.Close()
	first.Close() // crash without checkpoint

	f.restartGOS("eu-gos", stateDir)
	lr2, _, err := f.rts["mod"].Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	defer lr2.Close()
	stub2 := pkgobj.NewStub(lr2)
	if _, err := stub2.GetFileContents("before"); err != nil {
		t.Fatal("checkpointed file lost")
	}
	if _, err := stub2.GetFileContents("after"); err == nil {
		t.Fatal("uncheckpointed file must be gone after crash")
	}
}

func TestShutdownCheckpointsEverything(t *testing.T) {
	f := newFixture(t, nil)
	stateDir := t.TempDir()
	first := f.startGOS("eu-gos", stateDir, nil)

	cl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	oid, _, _, err := cl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
	})
	if err != nil {
		t.Fatal(err)
	}
	lr, _, err := f.rts["mod"].Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	if err := pkgobj.NewStub(lr).AddFile("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	lr.Close()
	cl.Close()
	if err := first.Shutdown(); err != nil {
		t.Fatal(err)
	}

	f.restartGOS("eu-gos", stateDir)
	lr2, _, err := f.rts["mod"].Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	defer lr2.Close()
	if _, err := pkgobj.NewStub(lr2).GetFileContents("f"); err != nil {
		t.Fatal("orderly shutdown must persist unprompted")
	}
}

func TestCommandAdmissionControl(t *testing.T) {
	authority, err := sec.NewAuthority("gdn-root")
	if err != nil {
		t.Fatal(err)
	}
	mkAuth := func(role, id string) *sec.Config {
		creds, err := sec.NewCredentials(authority, sec.Principal(role, id), role)
		if err != nil {
			t.Fatal(err)
		}
		return &sec.Config{Creds: creds, TrustAnchors: authority.Anchors(), RequireClientAuth: true}
	}
	gosAuth := mkAuth(sec.RoleGOS, "eu-gos")
	modAuth := mkAuth(sec.RoleModerator, "alice")
	userAuth := mkAuth(sec.RoleUser, "mallory")

	f := newFixture(t, map[string]*sec.Config{"eu-gos": gosAuth})
	f.startGOS("eu-gos", "", gosAuth)

	mod := NewClient(f.net, "mod", "eu-gos:gos-cmd", modAuth)
	defer mod.Close()
	if _, _, _, err := mod.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
	}); err != nil {
		t.Fatalf("moderator create: %v", err)
	}

	user := NewClient(f.net, "mod", "eu-gos:gos-cmd", userAuth)
	defer user.Close()
	if _, _, _, err := user.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
	}); err == nil {
		t.Fatal("user create must be rejected")
	} else if !strings.Contains(err.Error(), "not authorized") {
		t.Fatalf("unexpected rejection: %v", err)
	}

	// An unauthenticated client cannot even complete the handshake.
	anon := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer anon.Close()
	if _, err := anon.ListReplicas(); err == nil {
		t.Fatal("anonymous command must fail")
	}
}

func TestCreateRequestRoundTrip(t *testing.T) {
	req := CreateRequest{
		OID:      ids.Derive("x"),
		Impl:     pkgobj.Impl,
		Protocol: repl.MasterSlave,
		Role:     repl.RoleSlave,
		Params:   map[string]string{"a": "1"},
		Peers: []gls.ContactAddress{
			{Protocol: repl.MasterSlave, Address: "m:obj", Impl: pkgobj.Impl, Role: repl.RoleMaster},
		},
		InitState: []byte{1, 2, 3},
	}
	got, err := decodeCreateRequest(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.OID != req.OID || got.Impl != req.Impl || got.Role != req.Role ||
		len(got.Peers) != 1 || got.Peers[0] != req.Peers[0] ||
		!bytes.Equal(got.InitState, req.InitState) || got.Params["a"] != "1" {
		t.Fatalf("round trip: %+v", got)
	}

	// nil InitState survives as nil (distinguishes "no seed" from
	// "empty seed").
	req.InitState = nil
	got, err = decodeCreateRequest(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.InitState != nil {
		t.Fatal("nil InitState must stay nil")
	}
}

func TestDuplicateHostingRejected(t *testing.T) {
	f := newFixture(t, nil)
	f.startGOS("eu-gos", "", nil)
	cl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer cl.Close()

	oid, _, _, err := cl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cl.CreateReplica(CreateRequest{
		OID: oid, Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
	}); err == nil {
		t.Fatal("hosting the same object twice must fail")
	}
}
