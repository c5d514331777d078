package gos

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gdn/internal/gls"
	"gdn/internal/pkgobj"
	"gdn/internal/repl"
	"gdn/internal/store"
)

// stagePackage stages a package with one deterministic file of the
// given size and returns its chunks, marshalled state and refs.
func stagePackage(t *testing.T, name string, size int) (pkgobj.Chunks, []byte, []store.Ref, []byte) {
	t.Helper()
	content := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(content)
	state, staged, err := pkgobj.Stage(map[string][]byte{name: content}, nil)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := pkgobj.StateRefs(state)
	if err != nil {
		t.Fatal(err)
	}
	return staged, state, refs, content
}

// TestRedeployUnchangedPackageUploadsNoChunks is the negotiation
// acceptance check: deploying a package a second time moves zero chunk
// bodies, counted three ways — the client's upload stats, the server
// store's counters, and the simulated network's byte meter.
func TestRedeployUnchangedPackageUploadsNoChunks(t *testing.T) {
	f := newFixture(t, nil)
	srv := f.startGOS("eu-gos", t.TempDir(), nil)

	const size = 800_123 // four chunks, not chunk-aligned
	staged, state, refs, _ := stagePackage(t, "big.bin", size)

	cl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer cl.Close()

	stats, _, err := cl.PutChunks(staged, refs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != stats.Offered || stats.Sent == 0 {
		t.Fatalf("first deploy sent %d of %d chunks; want all", stats.Sent, stats.Offered)
	}
	if _, _, _, err := cl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
		InitState: state,
	}); err != nil {
		t.Fatal(err)
	}

	// Re-deploy: the negotiation names nothing missing.
	before := srv.Chunks().Stats()
	f.net.ResetMeter()
	stats, _, err = cl.PutChunks(staged, refs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 0 || stats.SentBytes != 0 {
		t.Fatalf("re-deploy uploaded %d chunks (%d bytes), want none", stats.Sent, stats.SentBytes)
	}
	after := srv.Chunks().Stats()
	if after.Dedup != before.Dedup {
		t.Fatalf("server store saw %d redundant Puts during re-deploy, want 0", after.Dedup-before.Dedup)
	}
	if after.Chunks != before.Chunks || after.Bytes != before.Bytes {
		t.Fatalf("server store changed across a no-op re-deploy: %+v -> %+v", before, after)
	}
	if moved := f.net.Meter().TotalBytes(); moved > 64<<10 {
		t.Fatalf("re-deploy negotiation moved %d bytes on the wire; content (%d bytes) leaked through", moved, size)
	}
}

// TestScrubbedChunkRepairedByNextFetch drives the full corruption
// lifecycle: silent on-disk rot at a slave is caught by the scrubber,
// quarantined, and healed by the next state transfer's delta sync —
// without any operator action.
func TestScrubbedChunkRepairedByNextFetch(t *testing.T) {
	f := newFixture(t, nil)
	slaveDir := t.TempDir()
	f.startGOS("eu-gos", t.TempDir(), nil)
	slaveSrv := f.startGOS("us-gos", slaveDir, nil)

	const size = 800_123
	staged, state, refs, content := stagePackage(t, "big.bin", size)

	euCl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer euCl.Close()
	usCl := NewClient(f.net, "mod", "us-gos:gos-cmd", nil)
	defer usCl.Close()
	if _, _, err := euCl.PutChunks(staged, refs); err != nil {
		t.Fatal(err)
	}
	oid, masterCA, _, err := euCl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.MasterSlave, Role: repl.RoleMaster,
		InitState: state,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := usCl.CreateReplica(CreateRequest{
		OID: oid, Impl: pkgobj.Impl, Protocol: repl.MasterSlave, Role: repl.RoleSlave,
		Peers: []gls.ContactAddress{masterCA},
	}); err != nil {
		t.Fatal(err)
	}

	// Rot one chunk on the slave's disk behind the store's back.
	victim := refs[1]
	chunkPath := filepath.Join(slaveDir, "chunks", victim.String()[:2], victim.String())
	raw, err := os.ReadFile(chunkPath)
	if err != nil {
		t.Fatalf("read slave chunk file: %v", err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(chunkPath, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	res := slaveSrv.Chunks().Scrub(-1)
	if len(res.Quarantined) != 1 || res.Quarantined[0] != victim {
		t.Fatalf("scrub quarantined %v, want [%s]", res.Quarantined, victim.Short())
	}

	// The slave cannot serve the file while the chunk is quarantined.
	usLR, _, err := f.rts["us-gos"].Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	defer usLR.Close()
	usStub := pkgobj.NewStub(usLR)
	if err := usStub.VerifyFile("big.bin"); err == nil {
		t.Fatal("slave served a file with a quarantined chunk")
	}

	// The next write pushes state; the slave's delta sync notices the
	// quarantined ref is missing and refetches it from the master.
	modLR, _, err := f.rts["mod"].Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	defer modLR.Close()
	if err := pkgobj.NewStub(modLR).SetMeta("release", "2"); err != nil {
		t.Fatal(err)
	}

	got, err := usStub.GetFileContents("big.bin")
	if err != nil {
		t.Fatalf("slave read after repair: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("repaired content does not match the original")
	}
	if st := slaveSrv.Chunks().Stats(); st.Repaired != 1 {
		t.Fatalf("slave store Repaired = %d, want 1", st.Repaired)
	}
}

// TestUploadFileNegotiatedDelta checks the moderator update path: an
// unchanged re-upload touches nothing, and a small change ships only
// the changed chunk — no redundant chunk body reaches the master's
// store either way.
func TestUploadFileNegotiatedDelta(t *testing.T) {
	f := newFixture(t, nil)
	masterSrv := f.startGOS("eu-gos", "", nil)
	f.startGOS("us-gos", "", nil)

	euCl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer euCl.Close()
	usCl := NewClient(f.net, "mod", "us-gos:gos-cmd", nil)
	defer usCl.Close()
	oid, masterCA, _, err := euCl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.MasterSlave, Role: repl.RoleMaster,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := usCl.CreateReplica(CreateRequest{
		OID: oid, Impl: pkgobj.Impl, Protocol: repl.MasterSlave, Role: repl.RoleSlave,
		Peers: []gls.ContactAddress{masterCA},
	}); err != nil {
		t.Fatal(err)
	}

	const size = 800_123
	content := make([]byte, size)
	rand.New(rand.NewSource(11)).Read(content)

	// Bind at the master's own site: a GLS lookup finds the nearest
	// replica (§3.5 — from a third site it may return only the slave,
	// in which case UploadFile correctly falls back to content-bearing
	// writes), and this test asserts on the negotiated path, so it
	// needs the master's contact address deterministically.
	modLR, _, err := f.rts["eu-gos"].Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	defer modLR.Close()
	modStub := pkgobj.NewStub(modLR)
	if err := modStub.UploadFile("big.bin", content); err != nil {
		t.Fatal(err)
	}

	// Unchanged re-upload: the Stat short-circuit means no write, no
	// chunk traffic, no store churn at all.
	before := masterSrv.Chunks().Stats()
	f.net.ResetMeter()
	if err := modStub.UploadFile("big.bin", content); err != nil {
		t.Fatal(err)
	}
	if after := masterSrv.Chunks().Stats(); after != before {
		t.Fatalf("unchanged re-upload churned the master store: %+v -> %+v", before, after)
	}
	if moved := f.net.Meter().TotalBytes(); moved > 16<<10 {
		t.Fatalf("unchanged re-upload moved %d bytes", moved)
	}

	// Change the tail chunk only: exactly the delta travels, and the
	// unchanged chunks are never re-Put (the negotiation filtered them
	// before their bodies could reach the wire).
	changed := append([]byte(nil), content...)
	changed[len(changed)-10] ^= 0xFF
	before = masterSrv.Chunks().Stats()
	f.net.ResetMeter()
	if err := modStub.UploadFile("big.bin", changed); err != nil {
		t.Fatal(err)
	}
	if after := masterSrv.Chunks().Stats(); after.Dedup != before.Dedup {
		t.Fatalf("changed-tail re-upload re-Put %d unchanged chunks", after.Dedup-before.Dedup)
	}
	// The tail chunk is ~13.5 KB; the full file is 800 KB. Bound the
	// wire generously below full-content reship (which would also hit
	// the slave push): changed chunk to master + state push + slave
	// delta fetch of the same chunk.
	if moved := f.net.Meter().TotalBytes(); moved > 200<<10 {
		t.Fatalf("changed-tail re-upload moved %d bytes; delta sync is not filtering", moved)
	}

	// The slave converged on the new content.
	usLR, _, err := f.rts["us-gos"].Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	defer usLR.Close()
	got, err := pkgobj.NewStub(usLR).GetFileContents("big.bin")
	if err != nil || !bytes.Equal(got, changed) {
		t.Fatalf("slave content diverged after delta upload: %v", err)
	}
}
