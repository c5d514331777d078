package repl

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"gdn/internal/core"
	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/pkgobj"
	"gdn/internal/rpc"
	"gdn/internal/store"
)

// Active-replication chunk upload: writes replay at every peer, so the
// proxy runs the one chunk upload against each of them, and each
// replica is shipped exactly its own gap. The payoff the
// ROADMAP asked for: an unchanged re-deploy to an active-replicated
// object moves zero chunk bodies.

// activeWorld builds sequencer + two peers hosting a package object and
// returns the hosted LRs plus a binding proxy stub at us-client.
func activeWorld(t *testing.T, f *fixture, oid ids.OID) (seq, peer1, peer2 *core.LR, stub *pkgobj.Stub) {
	t.Helper()
	pkgobj.Register(f.rts["origin"].Registry())
	seq, seqCA := pkgReplica(t, f, oid, "origin", Active, RoleSequencer, nil)
	peer1, _ = pkgReplica(t, f, oid, "eu-client", Active, RolePeer, []gls.ContactAddress{seqCA})
	peer2, _ = pkgReplica(t, f, oid, "us-client", Active, RolePeer, []gls.ContactAddress{seqCA})
	proxy := f.bind("us-client", oid)
	return seq, peer1, peer2, pkgobj.NewStub(proxy)
}

// semStoreOf reaches a hosted replica's chunk store.
func semStoreOf(t *testing.T, lr *core.LR) *store.Store {
	t.Helper()
	cs, ok := lr.Semantics().(core.ChunkStored)
	if !ok {
		t.Fatal("semantics is not chunk-stored")
	}
	return cs.Store()
}

func TestActiveNegotiatedUploadReachesEveryPeer(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.Derive("active-negotiate")
	seq, peer1, peer2, stub := activeWorld(t, f, oid)

	const chunk = pkgobj.DefaultChunkSize
	content := make([]byte, 4*chunk+123)
	rand.New(rand.NewSource(11)).Read(content)

	// The proxy implements the negotiator now, so UploadFile takes the
	// manifest path; the write replays at the sequencer and both peers,
	// each of which must therefore hold the chunks.
	if _, ok := stub.LR().Replication().(core.ChunkNegotiator); !ok {
		t.Fatal("active proxy must implement core.ChunkNegotiator")
	}
	if err := stub.UploadFile("blob", content); err != nil {
		t.Fatal(err)
	}
	for name, lr := range map[string]*core.LR{"sequencer": seq, "peer1": peer1, "peer2": peer2} {
		got, err := pkgobj.NewStub(lr).GetFileContents("blob")
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("%s content diverged after negotiated upload: %v", name, err)
		}
	}

	// Re-deploying the same bytes under a new path cannot use the Stat
	// short-circuit (no file there yet), so it exercises the
	// negotiation: every replica already has every chunk, and zero
	// chunk bodies may cross any wire — just the negotiation rounds and
	// the replayed manifest write.
	f.net.ResetMeter()
	if err := stub.UploadFile("copy", content); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, b := range f.net.Meter().Bytes {
		total += b
	}
	if total > chunk/2 {
		t.Fatalf("unchanged re-deploy moved %d bytes, want far less than one chunk (%d)", total, chunk)
	}
	for name, lr := range map[string]*core.LR{"sequencer": seq, "peer1": peer1, "peer2": peer2} {
		got, err := pkgobj.NewStub(lr).GetFileContents("copy")
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("%s copy diverged after zero-transfer re-deploy: %v", name, err)
		}
	}
}

func TestActiveNegotiationIsUnionOfMissingSets(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.Derive("active-union")
	seq, peer1, peer2, stub := activeWorld(t, f, oid)

	const chunk = pkgobj.DefaultChunkSize
	content := make([]byte, 2*chunk)
	rand.New(rand.NewSource(12)).Read(content)
	if err := stub.UploadFile("blob", content); err != nil {
		t.Fatal(err)
	}
	shared := store.RefOf(content[:chunk]) // present at every replica now

	// Plant a chunk in the sequencer's store only: an upload
	// negotiated against that replica alone would skip it and starve
	// the peers.
	lopsided := make([]byte, chunk)
	rand.New(rand.NewSource(13)).Read(lopsided)
	lref, err := semStoreOf(t, seq).Put(lopsided)
	if err != nil {
		t.Fatal(err)
	}

	// The one upload ships each replica its own gap: both peers lack
	// the chunk and receive it, the sequencer already holds it and
	// receives nothing, and afterwards no store lacks it.
	neg := stub.LR().Replication().(core.ChunkNegotiator)
	src := pkgobj.Chunks{shared: content[:chunk], lref: lopsided}
	stats, _, err := neg.PutChunks(src, []store.Ref{shared, lref})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Offered != 2 || stats.Sent != 2 || stats.SentBytes != 2*chunk {
		t.Fatalf("upload stats = %+v, want 2 offered and the lopsided chunk sent to each of the 2 peers", stats)
	}
	for name, lr := range map[string]*core.LR{"sequencer": seq, "peer1": peer1, "peer2": peer2} {
		if m := semStoreOf(t, lr).Missing([]store.Ref{lref}); len(m) != 0 {
			t.Fatalf("%s store still missing pushed chunk", name)
		}
	}
}

// TestActiveUploadNegotiatesOncePerReplica counts the ops the
// replicas' dispatcher handlers serve during a fresh 2-chunk
// UploadFile through the active proxy: one roster fetch (answered by
// the sequencer, perhaps relayed by one peer), then at each of the
// three replicas one OpChunkHave and one upload stream.
func TestActiveUploadNegotiatesOncePerReplica(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.Derive("active-one-upload")
	seq, peer1, peer2, stub := activeWorld(t, f, oid)

	var mu sync.Mutex
	ops := make(map[string]map[uint16]int)
	for site, lr := range map[string]*core.LR{"origin": seq, "eu-client": peer1, "us-client": peer2} {
		h := lr.Replication().(interface {
			handle(*rpc.Call) ([]byte, error)
		}).handle
		ops[site] = make(map[uint16]int)
		f.disps[site].Register(oid, func(call *rpc.Call) ([]byte, error) {
			mu.Lock()
			ops[site][call.Op]++
			mu.Unlock()
			return h(call)
		})
	}

	content := make([]byte, 2*pkgobj.DefaultChunkSize)
	rand.New(rand.NewSource(15)).Read(content)
	if err := stub.UploadFile("blob", content); err != nil {
		t.Fatal(err)
	}
	got, err := pkgobj.NewStub(peer1).GetFileContents("blob")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("peer content after upload: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	for site, n := range ops {
		if n[core.OpChunkHave] != 1 || n[core.OpChunkPut] != 1 {
			t.Fatalf("%s served %d OpChunkHave and %d OpChunkPut, want 1 and 1 (all ops: %v)", site, n[core.OpChunkHave], n[core.OpChunkPut], ops)
		}
	}
	if relayed := ops["eu-client"][opPeerRoster] + ops["us-client"][opPeerRoster]; ops["origin"][opPeerRoster] != 1 || relayed > 1 {
		t.Fatalf("roster served %d times by the sequencer and relayed %d times by peers, want one fetch (all ops: %v)", ops["origin"][opPeerRoster], relayed, ops)
	}
}

func TestActiveNegotiationAbortsWhenAPeerIsDown(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.Derive("active-down")
	_, _, _, stub := activeWorld(t, f, oid)

	const chunk = pkgobj.DefaultChunkSize
	content := make([]byte, 2*chunk)
	rand.New(rand.NewSource(14)).Read(content)

	// With a peer unreachable the upload must fail (a chunk "present
	// everywhere reachable" may still be missing there), and
	// UploadFile falls back to content-bearing writes, which the
	// sequencer journal replays when the peer resyncs.
	f.net.SetDown("eu-client", true)
	neg := stub.LR().Replication().(core.ChunkNegotiator)
	ref := store.RefOf(content)
	if _, _, err := neg.PutChunks(pkgobj.Chunks{ref: content}, []store.Ref{ref}); err == nil {
		t.Fatal("chunk upload with a dead peer must fail, forcing the content-bearing fallback")
	}
	if err := stub.UploadFile("blob", content); err != nil {
		t.Fatalf("upload must fall back to content-bearing writes: %v", err)
	}
	got, err := stub.GetFileContents("blob")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("read back after fallback upload: %v", err)
	}
}
