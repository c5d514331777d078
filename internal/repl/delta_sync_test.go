package repl

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"gdn/internal/core"
	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/netsim"
	"gdn/internal/obs"
	"gdn/internal/pkgobj"
	"gdn/internal/rpc"
	"gdn/internal/store"
	"gdn/internal/wire"
)

// pkgReplica hosts a package replica at a site (the repl fixture's
// replica helper is kv-specific).
func pkgReplica(t *testing.T, f *fixture, oid ids.OID, site, protocol, role string, peers []gls.ContactAddress) (*core.LR, gls.ContactAddress) {
	t.Helper()
	lr, ca, err := f.rts[site].NewReplica(core.ReplicaSpec{
		OID: oid, Impl: pkgobj.Impl, Protocol: protocol, Role: role, Peers: peers,
	}, f.disps[site])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lr.Close() })
	f.register(site, oid, ca)
	return lr, ca
}

// TestMasterSlaveDeltaSyncShipsOnlyMissingChunks pins the delta state
// transfer property: after the initial full sync, an append to a
// multi-chunk file costs the wide-area link roughly the appended
// chunk, because the state push carries manifests and the slave
// fetches only refs its store lacks.
func TestMasterSlaveDeltaSyncShipsOnlyMissingChunks(t *testing.T) {
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())

	const chunk = pkgobj.DefaultChunkSize
	base := make([]byte, 8*chunk)
	rand.New(rand.NewSource(7)).Read(base)

	oid := ids.Derive("delta-sync")
	masterLR, masterCA := pkgReplica(t, f, oid, "origin", MasterSlave, RoleMaster, nil)
	master := pkgobj.NewStub(masterLR)
	if err := master.UploadFile("blob", base); err != nil {
		t.Fatal(err)
	}

	// Slave creation across the wide area: the initial transfer must
	// ship everything once.
	f.net.ResetMeter()
	slaveLR, _ := pkgReplica(t, f, oid, "us-client", MasterSlave, RoleSlave, []gls.ContactAddress{masterCA})
	if wan := f.net.Meter().Bytes[netsim.WideArea]; wan < int64(len(base)) {
		t.Fatalf("initial sync shipped %d WAN bytes, want >= %d", wan, len(base))
	}

	// Append one chunk of fresh content: the synchronous push must
	// cost ~one chunk, not a full-state reship.
	extra := make([]byte, chunk)
	rand.New(rand.NewSource(8)).Read(extra)
	f.net.ResetMeter()
	if err := master.AppendFile("blob", extra); err != nil {
		t.Fatal(err)
	}
	wan := f.net.Meter().Bytes[netsim.WideArea]
	if wan < int64(chunk) {
		t.Fatalf("append shipped %d WAN bytes, want at least the appended chunk (%d)", wan, chunk)
	}
	if wan > int64(2*chunk) {
		t.Fatalf("append shipped %d WAN bytes — full-state reship instead of delta (file is %d)", wan, len(base)+chunk)
	}

	// The slave converged byte-for-byte.
	slave := pkgobj.NewStub(slaveLR)
	got, err := slave.GetFileContents("blob")
	if err != nil || !bytes.Equal(got, append(base, extra...)) {
		t.Fatalf("slave content diverged: %v", err)
	}
}

// TestProxyStreamedReadVerifies pins the proxy-side bulk stream: a
// binding client reads a multi-chunk file through ReadFileTo (the
// OpBulkRead frame stream) and the digest check passes.
func TestProxyStreamedReadVerifies(t *testing.T) {
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())

	content := make([]byte, 5*pkgobj.DefaultChunkSize+999)
	rand.New(rand.NewSource(9)).Read(content)

	oid := ids.Derive("bulk-stream")
	serverLR, _ := pkgReplica(t, f, oid, "origin", ClientServer, RoleServer, nil)
	if err := pkgobj.NewStub(serverLR).UploadFile("blob", content); err != nil {
		t.Fatal(err)
	}

	clientLR := f.bind("us-client", oid)
	if _, _, err := clientLR.Replication().ReadBulk(obs.SpanContext{}, "blob", 0, 0, func([]byte) error { return nil }); err != nil {
		t.Fatalf("client proxy must support streamed bulk reads: %v", err)
	}
	stub := pkgobj.NewStub(clientLR)
	var buf bytes.Buffer
	n, err := stub.ReadFileTo(&buf, "blob")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(content)) || !bytes.Equal(buf.Bytes(), content) {
		t.Fatalf("streamed read returned %d bytes, want %d", n, len(content))
	}
	if stub.TakeCost() <= 0 {
		t.Fatal("streamed read lost its virtual network cost")
	}
}

// TestTaggedReadIsOneBulkStream: a binding client reads a multi-chunk
// tagged file through its proxy as one OpBulkRead stream, the path of
// working files, with no per-chunk invocation.
func TestTaggedReadIsOneBulkStream(t *testing.T) {
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())

	tagged := make([]byte, 5*pkgobj.DefaultChunkSize+999)
	rand.New(rand.NewSource(10)).Read(tagged)

	oid := ids.Derive("tagged-stream")
	serverLR, _ := pkgReplica(t, f, oid, "origin", ClientServer, RoleServer, nil)
	owner := pkgobj.NewStub(serverLR)
	if err := owner.UploadFile("blob", tagged); err != nil {
		t.Fatal(err)
	}
	if err := owner.TagVersion("1.0"); err != nil {
		t.Fatal(err)
	}
	if err := owner.AddFile("blob", []byte("development moved on")); err != nil {
		t.Fatal(err)
	}

	srv := serverLR.Replication().(*csServer)
	var mu sync.Mutex
	ops := make(map[uint16]int)
	f.disps["origin"].Register(oid, func(call *rpc.Call) ([]byte, error) {
		mu.Lock()
		ops[call.Op]++
		mu.Unlock()
		return srv.handle(call)
	})

	client := pkgobj.NewStub(f.bind("us-client", oid))
	got, err := client.GetFileAtVersion("1.0", "blob")
	if err != nil || !bytes.Equal(got, tagged) {
		t.Fatalf("tagged read through the proxy: %d bytes, %v", len(got), err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ops[core.OpBulkRead] != 1 || len(ops) != 1 {
		t.Fatalf("tagged read reached the server as %v, want one OpBulkRead (op %d) and nothing else", ops, core.OpBulkRead)
	}
}

// TestUnaryChunkPutRefused: OpChunkPut accepts only an upload stream,
// at the replica that stores the chunks and at a cache that relays
// them; a unary counted batch is refused and stores nothing.
func TestUnaryChunkPutRefused(t *testing.T) {
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())
	oid := ids.Derive("unary-chunk-put")
	serverLR, serverCA := pkgReplica(t, f, oid, "origin", ClientServer, RoleServer, nil)
	pkgReplica(t, f, oid, "eu-client", Cache, RoleCache, []gls.ContactAddress{serverCA})

	body := []byte("a chunk sent the unary way")
	w := wire.NewWriter(64)
	w.Count(1)
	w.Bytes32(body)
	for _, addr := range []string{"origin:objects", "eu-client:objects"} {
		_, _, err := f.peer("us-client", oid, addr).Call(obs.SpanContext{}, core.OpChunkPut, w.Bytes())
		if err == nil || !strings.Contains(err.Error(), "upload stream") {
			t.Fatalf("unary OpChunkPut at %s = %v, want refused as not an upload stream", addr, err)
		}
	}
	if serverLR.Semantics().(*pkgobj.Package).Store().Has(store.RefOf(body)) {
		t.Fatal("a refused unary chunk put stored its chunk")
	}
}
