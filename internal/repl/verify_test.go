package repl

import (
	"bytes"
	"errors"
	"io"
	"os"
	"sync"
	"testing"

	"gdn/internal/core"
	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/obs"
	"gdn/internal/pkgobj"
	"gdn/internal/store"
)

// Tests that a proxy verifies every whole-item read of remote content:
// a replica serves disk chunks as file sections its transport copies
// without re-reading them, so bytes changed on the replica's disk
// reach the proxy unchecked, and only the proxy's hash can stop them.

// diskMaster hosts a master replica at origin whose content lives in a
// disk store under dir, holding content as "blob". It returns the
// replica's address and its store.
func diskMaster(t testing.TB, f *fixture, oid ids.OID, dir string, content []byte) (gls.ContactAddress, *store.Store) {
	t.Helper()
	_, ca, st := diskMasterLR(t, f, oid, dir, content)
	return ca, st
}

// diskMasterLR is diskMaster that also returns the master's local
// representative, for tests that write to it again.
func diskMasterLR(t testing.TB, f *fixture, oid ids.OID, dir string, content []byte) (*core.LR, gls.ContactAddress, *store.Store) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lr, ca, err := f.rts["origin"].NewReplica(core.ReplicaSpec{
		OID: oid, Impl: pkgobj.Impl, Protocol: MasterSlave, Role: RoleMaster, Store: st,
	}, f.disps["origin"])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lr.Close() })
	if err := pkgobj.NewStub(lr).UploadFile("blob", content); err != nil {
		t.Fatal(err)
	}
	return lr, ca, st
}

// flipOnDisk changes the middle byte of the chunk holding body in the
// segment file that OpenChunk finds it in, keeping its length.
func flipOnDisk(t *testing.T, st *store.Store, body []byte) {
	t.Helper()
	h, _, err := st.OpenChunk(store.RefOf(body))
	if err != nil {
		t.Fatal(err)
	}
	off, err := h.Seek(0, io.SeekCurrent)
	h.Close()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(h.Name(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off+int64(len(body)/2)); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off+int64(len(body)/2)); err != nil {
		t.Fatal(err)
	}
}

// msProxy binds a masterslave proxy at us-client over the given peers.
func msProxy(t testing.TB, f *fixture, oid ids.OID, peers ...gls.ContactAddress) *proxy {
	t.Helper()
	p, err := MasterSlaveProtocol().NewProxy(&core.Env{
		OID: oid, Site: "us-client", Clients: f.clients("us-client"),
		Peers: peers, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p.(*proxy)
}

func readAll(p *proxy, off, n int64) ([]byte, error) {
	var got bytes.Buffer
	_, _, err := p.ReadBulk(obs.SpanContext{}, "blob", off, n, func(b []byte) error {
		got.Write(b)
		return nil
	})
	return got.Bytes(), err
}

// TestProxyVerifiesEveryRemoteWholeRead: whole-item reads through a
// proxy are hashed every time, so a chunk changed on the replica's
// disk after earlier good reads fails every later read, even though
// every byte reached the consumer.
func TestProxyVerifiesEveryRemoteWholeRead(t *testing.T) {
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())
	oid := ids.New()
	dir := t.TempDir()
	content := make([]byte, 3*pkgobj.DefaultChunkSize+100)
	for i := range content {
		content[i] = byte(i * 13 / 7)
	}
	ca, st := diskMaster(t, f, oid, dir, content)
	p := msProxy(t, f, oid, ca)

	for range 2 {
		if got, err := readAll(p, 0, -1); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("clean read: %d bytes, %v", len(got), err)
		}
	}
	flipOnDisk(t, st, content[pkgobj.DefaultChunkSize:2*pkgobj.DefaultChunkSize])
	for i := range 2 {
		got, err := readAll(p, 0, -1)
		if !errors.Is(err, core.ErrDigestMismatch) {
			t.Fatalf("read %d after the disk change = %v, want a digest mismatch", i, err)
		}
		if len(got) != len(content) {
			t.Fatalf("read %d delivered %d bytes; the change is length-preserving, want all %d", i, len(got), len(content))
		}
	}
}

// TestProxyVerifiesAcrossFailover: the hash of a whole-item read runs
// on across a mid-stream failover, so changed bytes that arrive from
// the replica the read resumed on fail it.
func TestProxyVerifiesAcrossFailover(t *testing.T) {
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())
	oid := ids.New()
	dir := t.TempDir()
	// 8 MiB = 32 chunks, more than the stream's credit window: the
	// slave is still mid-transfer when its site goes down.
	content := make([]byte, 8<<20)
	for i := range content {
		content[i] = byte(i * 31 / 17)
	}
	masterCA, st := diskMaster(t, f, oid, dir, content)
	_, slaveCA, err := newPkgReplica(f, oid, "eu-client", MasterSlave, RoleSlave, []gls.ContactAddress{masterCA})
	if err != nil {
		t.Fatal(err)
	}
	// The slave copied its chunks before the change; only the master,
	// which the read resumes on, serves the changed last chunk.
	flipOnDisk(t, st, content[len(content)-pkgobj.DefaultChunkSize:])
	p := msProxy(t, f, oid, masterCA, slaveCA)

	var got bytes.Buffer
	var killOnce sync.Once
	_, _, err = p.ReadBulk(obs.SpanContext{}, "blob", 0, -1, func(b []byte) error {
		got.Write(b)
		killOnce.Do(func() { f.net.SetDown("eu-client", true) })
		return nil
	})
	if fo := p.Peers().Failovers(); fo != 1 {
		t.Fatalf("failovers = %d, want 1", fo)
	}
	if !errors.Is(err, core.ErrDigestMismatch) {
		t.Fatalf("read resumed onto a changed chunk = %v, want a digest mismatch", err)
	}
	if got.Len() != len(content) {
		t.Fatalf("delivered %d bytes, want all %d", got.Len(), len(content))
	}
}
