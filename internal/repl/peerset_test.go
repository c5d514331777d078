package repl

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdn/internal/core"
	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/obs"
	"gdn/internal/pkgobj"
	"gdn/internal/rpc"
	"gdn/internal/store"
)

// Tests for the ranked peer-set behaviour the proxies now share: role
// preference, read spreading across interchangeable replicas, and
// failover to the next candidate when the bound replica dies.

func TestPickPeerRolePreferenceOrdering(t *testing.T) {
	peers := []gls.ContactAddress{
		{Role: RolePeer, Address: "a:peer"},
		{Role: RoleSlave, Address: "b:slave"},
		{Role: RoleMaster, Address: "c:master"},
		{Role: RoleSlave, Address: "d:slave2"},
	}
	env := &core.Env{Peers: peers}

	// The earliest role in prefs wins, regardless of peer order; among
	// equals the first listed is picked.
	if got := pickPeer(env, RoleMaster, RoleSlave); got != "c:master" {
		t.Fatalf("pickPeer(master, slave) = %q", got)
	}
	if got := pickPeer(env, RoleSlave, RoleMaster); got != "b:slave" {
		t.Fatalf("pickPeer(slave, master) = %q", got)
	}
	if got := pickPeer(env, RoleServer, RoleSequencer, RolePeer); got != "a:peer" {
		t.Fatalf("pickPeer(..., peer) = %q", got)
	}
	// No preferred role present: the first peer is the fallback.
	if got := pickPeer(env, RoleServer); got != "a:peer" {
		t.Fatalf("pickPeer fallback = %q", got)
	}
	if got := pickPeer(&core.Env{}, RoleServer); got != "" {
		t.Fatalf("pickPeer on empty set = %q", got)
	}
}

// countingBackend registers a fake representative that answers reads
// and counts how many it served.
func countingBackend(t *testing.T, f *fixture, site string, oid ids.OID) *atomic.Int64 {
	t.Helper()
	var hits atomic.Int64
	f.disps[site].Register(oid, func(call *rpc.Call) ([]byte, error) {
		if call.Op != core.OpInvoke {
			return nil, fmt.Errorf("backend %s: unexpected op %d", site, call.Op)
		}
		hits.Add(1)
		return []byte("v"), nil
	})
	t.Cleanup(func() { f.disps[site].Unregister(oid) })
	return &hits
}

func TestTwoProxiesOfOneObjectSpreadReads(t *testing.T) {
	// The seed bug this guards against: msProxy used to seed its
	// read-replica RNG from the OID's first bytes, so every proxy of a
	// given object world-wide picked the same slave order and herded
	// the object's whole read load onto one replica.
	f := newFixture(t, nil)
	oid := ids.New()
	// Both slaves sit in the caller's far region at equal distance, so
	// the latency demotion (which rightly prefers a much nearer
	// replica) stays out of the picture and pure spreading is tested.
	originHits := countingBackend(t, f, "origin", oid)
	euHits := countingBackend(t, f, "eu-client", oid)

	peers := []gls.ContactAddress{
		{Protocol: MasterSlave, Role: RoleSlave, Address: "origin:objects"},
		{Protocol: MasterSlave, Role: RoleSlave, Address: "eu-client:objects"},
	}
	proto := MasterSlaveProtocol()
	const proxies, reads = 2, 32
	for i := 0; i < proxies; i++ {
		p, err := proto.NewProxy(&core.Env{
			OID: oid, Site: "us-client", Clients: f.clients("us-client"), Peers: peers,
			Logf: func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < reads; j++ {
			if _, _, err := p.Invoke(core.Invocation{Method: "get", Args: getArgs("k")}); err != nil {
				t.Fatal(err)
			}
		}
		p.Close()
	}

	total := originHits.Load() + euHits.Load()
	if total != proxies*reads {
		t.Fatalf("backends saw %d reads, want %d", total, proxies*reads)
	}
	// Both slaves must carry real load. With per-instance seeding and
	// per-call shuffling each expects ~50%; require 25% so the test
	// never flakes while still catching a herd.
	min := int64(total / 4)
	if originHits.Load() < min || euHits.Load() < min {
		t.Fatalf("read herding: origin=%d eu=%d of %d", originHits.Load(), euHits.Load(), total)
	}
}

func TestUnaryReadFailsOverToNextReplica(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.New()
	_, masterCA := f.replica(oid, "origin", MasterSlave, RoleMaster, nil, nil)
	f.replica(oid, "eu-client", MasterSlave, RoleSlave, nil, []gls.ContactAddress{masterCA})

	proto := MasterSlaveProtocol()
	p, err := proto.NewProxy(&core.Env{
		OID: oid, Site: "us-client", Clients: f.clients("us-client"),
		Peers: []gls.ContactAddress{
			masterCA,
			{Protocol: MasterSlave, Role: RoleSlave, Address: "eu-client:objects"},
		},
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	mp := p.(*msProxy)

	if _, _, err := p.Invoke(core.Invocation{Method: "set", Write: true, Args: setArgs("k", "v")}); err != nil {
		t.Fatal(err)
	}

	// Kill the read-preferred slave: the read retries on the master
	// instead of failing, with exactly one failover.
	f.net.SetDown("eu-client", true)
	out, _, err := p.Invoke(core.Invocation{Method: "get", Args: getArgs("k")})
	if err != nil {
		t.Fatalf("read with dead slave: %v", err)
	}
	if string(out) != "v" {
		t.Fatalf("read = %q", out)
	}
	if got := mp.Peers().Failovers(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}

	// The failed candidate is now in backoff: further reads go straight
	// to the healthy replica without re-dialling the corpse.
	for i := 0; i < 4; i++ {
		if _, _, err := p.Invoke(core.Invocation{Method: "get", Args: getArgs("k")}); err != nil {
			t.Fatal(err)
		}
	}
	if got := mp.Peers().Failovers(); got != 1 {
		t.Fatalf("failovers after backoff = %d, want still 1", got)
	}
}

func TestCacheForwardsChunkNegotiationToParent(t *testing.T) {
	// A cache replica's store is not the store manifest writes read:
	// negotiation answered locally would promise chunks the server
	// lacks (OpChunkHave) or bank uploads where no write finds them
	// (OpChunkPut). Both must relay to the parent chain.
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())
	oid := ids.New()

	serverLR, serverCA, err := newPkgReplica(f, oid, "origin", ClientServer, RoleServer, nil)
	if err != nil {
		t.Fatal(err)
	}
	present := []byte("chunk the server already holds")
	if err := pkgobj.NewStub(serverLR).AddFile("seed", present); err != nil {
		t.Fatal(err)
	}
	cacheLR, _, err := newPkgReplica(f, oid, "eu-client", Cache, RoleCache, []gls.ContactAddress{serverCA})
	if err != nil {
		t.Fatal(err)
	}

	pc := f.peer("us-client", oid, "eu-client:objects")

	// Negotiate THROUGH the cache: the server has `present`, so only
	// the absent ref may come back missing — even though the cache's
	// own store holds neither.
	absent := []byte("chunk nobody has yet")
	refs := []store.Ref{store.RefOf(present), store.RefOf(absent)}
	missing, _, err := missingChunksFrom(pc, refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 || missing[0] != store.RefOf(absent) {
		t.Fatalf("missing via cache = %v, want just the absent ref (cache answered from the wrong store)", missing)
	}

	// Push the absent chunk through the cache: it must land in the
	// server's store (where a manifest write will find it), not the
	// cache's.
	if _, err := pushChunksTo(pc, [][]byte{absent}); err != nil {
		t.Fatal(err)
	}
	serverStore := serverLR.Semantics().(*pkgobj.Package).Store()
	if !serverStore.Has(store.RefOf(absent)) {
		t.Fatal("pushed chunk missing from the server's store")
	}
	cacheStore := cacheLR.Semantics().(*pkgobj.Package).Store()
	if cacheStore.Has(store.RefOf(absent)) {
		t.Fatal("pushed chunk banked in the cache's store instead of relayed")
	}
}

// newPkgReplica hosts a pkgobj replica at a site without registering
// it in the location service.
func newPkgReplica(f *fixture, oid ids.OID, site, protocol, role string, peers []gls.ContactAddress) (*core.LR, gls.ContactAddress, error) {
	lr, ca, err := f.rts[site].NewReplica(core.ReplicaSpec{
		OID: oid, Impl: pkgobj.Impl, Protocol: protocol, Role: role, Peers: peers,
	}, f.disps[site])
	if err != nil {
		return nil, gls.ContactAddress{}, err
	}
	f.t.Cleanup(func() { lr.Close() })
	return lr, ca, nil
}

func TestBulkReadResumesMidStreamOnReplicaDeath(t *testing.T) {
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())
	oid := ids.New()

	masterLR, masterCA, err := newPkgReplica(f, oid, "origin", MasterSlave, RoleMaster, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 8 MiB = 32 chunks: more frames than the stream's credit window,
	// so the serving replica is still mid-transfer (flow-controlled)
	// when its site goes down — the kill lands mid-stream, not after
	// the whole file is already in flight.
	content := bytes.Repeat([]byte("failover bytes! "), 512*1024)
	if err := pkgobj.NewStub(masterLR).UploadFile("blob", content); err != nil {
		t.Fatal(err)
	}
	_, slaveCA, err := newPkgReplica(f, oid, "eu-client", MasterSlave, RoleSlave, []gls.ContactAddress{masterCA})
	if err != nil {
		t.Fatal(err)
	}

	proto := MasterSlaveProtocol()
	p, err := proto.NewProxy(&core.Env{
		OID: oid, Site: "us-client", Clients: f.clients("us-client"),
		Peers: []gls.ContactAddress{masterCA, slaveCA},
		Logf:  func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	mp := p.(*msProxy)

	// Stream the file; after the first frame lands, crash the replica
	// serving it (reads prefer the slave). The stream must resume on
	// the master at the exact byte position already delivered. The read
	// carries a trace so the resumed stream's spans can be checked for
	// continuity below.
	root := obs.StartTrace("test.failover-read")
	var got bytes.Buffer
	var killOnce sync.Once
	m, _, err := p.(core.BulkReader).ReadBulk(root.Context(), "blob", 0, -1, func(b []byte) error {
		got.Write(b)
		killOnce.Do(func() { f.net.SetDown("eu-client", true) })
		return nil
	})
	root.End()
	if err != nil {
		t.Fatalf("bulk read across replica death: %v", err)
	}
	if m.Size != int64(len(content)) {
		t.Fatalf("manifest size = %d, want %d", m.Size, len(content))
	}
	if !bytes.Equal(got.Bytes(), content) {
		t.Fatalf("content mismatch after failover: got %d bytes", got.Len())
	}
	if fo := mp.Peers().Failovers(); fo != 1 {
		t.Fatalf("failovers = %d, want exactly 1 (one retried request)", fo)
	}

	// Trace continuity across the failover: both stream attempts (the
	// one the crash cut short and the resumed one) must have recorded
	// spans under the same trace ID.
	var streamSpans int
	for _, rec := range obs.DefaultTracer.Recent() {
		if rec.Trace == root.Context().Trace && rec.Name == "repl.stream blob" {
			streamSpans++
		}
	}
	if streamSpans != 2 {
		t.Fatalf("repl.stream spans in trace = %d, want 2 (original + resumed)", streamSpans)
	}
}

func TestBulkRangeReadResumesAtPartialChunkOffset(t *testing.T) {
	// The range-request flavour of mid-stream failover: the read starts
	// inside a chunk (so the serving side's prefetch plan opens with a
	// partial span) and the replica dies mid-transfer, forcing the
	// resumed stream to re-plan its prefetch window from the delivered
	// byte offset — which again lands mid-chunk. The consumer must see
	// exactly content[off:off+n]: no duplicated bytes from a prefetch
	// window that had run ahead of delivery, no gap at the seam.
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())
	oid := ids.New()

	masterLR, masterCA, err := newPkgReplica(f, oid, "origin", MasterSlave, RoleMaster, nil)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 8<<20)
	for i := range content {
		content[i] = byte(i * 31)
	}
	if err := pkgobj.NewStub(masterLR).UploadFile("blob", content); err != nil {
		t.Fatal(err)
	}
	_, slaveCA, err := newPkgReplica(f, oid, "eu-client", MasterSlave, RoleSlave, []gls.ContactAddress{masterCA})
	if err != nil {
		t.Fatal(err)
	}

	proto := MasterSlaveProtocol()
	p, err := proto.NewProxy(&core.Env{
		OID: oid, Site: "us-client", Clients: f.clients("us-client"),
		Peers: []gls.ContactAddress{masterCA, slaveCA},
		Logf:  func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Both bounds land strictly inside chunks (256 KiB canonical size).
	const off, n = 300_000, 5_000_000
	var got bytes.Buffer
	var killOnce sync.Once
	_, _, err = p.(core.BulkReader).ReadBulk(obs.SpanContext{}, "blob", off, n, func(b []byte) error {
		got.Write(b)
		killOnce.Do(func() { f.net.SetDown("eu-client", true) })
		return nil
	})
	if err != nil {
		t.Fatalf("range read across replica death: %v", err)
	}
	if !bytes.Equal(got.Bytes(), content[off:off+n]) {
		t.Fatalf("range content mismatch after failover: got %d bytes, want %d", got.Len(), n)
	}
	if fo := p.(*msProxy).Peers().Failovers(); fo != 1 {
		t.Fatalf("failovers = %d, want exactly 1", fo)
	}
}

func TestRelayedChunkOpsPropagateTrace(t *testing.T) {
	// The relay path is where a trace most easily goes dark: the cache
	// answers OpChunkHave by making a fresh outbound call to its
	// parent, and only call.TC threads the incoming trace into it. A
	// traced negotiation through the cache must therefore record a
	// server-side span at both hops under one trace ID.
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())
	oid := ids.New()

	_, serverCA, err := newPkgReplica(f, oid, "origin", ClientServer, RoleServer, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := newPkgReplica(f, oid, "eu-client", Cache, RoleCache, []gls.ContactAddress{serverCA}); err != nil {
		t.Fatal(err)
	}

	pc := f.peer("us-client", oid, "eu-client:objects")

	root := obs.StartTrace("test.chunk-negotiate")
	refs := []store.Ref{store.RefOf([]byte("chunk nobody has"))}
	missing, _, err := core.MissingChunksVia(func(body []byte) ([]byte, time.Duration, error) {
		return pc.CallT(root.Context(), core.OpChunkHave, body)
	}, refs)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 {
		t.Fatalf("missing = %v, want the one absent ref", missing)
	}

	var serveSpans int
	for _, rec := range obs.DefaultTracer.Recent() {
		if rec.Trace == root.Context().Trace && strings.HasPrefix(rec.Name, "rpc.serve op") {
			serveSpans++
		}
	}
	if serveSpans != 2 {
		t.Fatalf("rpc.serve spans in trace = %d, want 2 (cache hop + relayed parent hop)", serveSpans)
	}
}
