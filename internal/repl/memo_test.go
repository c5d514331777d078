package repl

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"runtime"
	"sync"
	"testing"

	"gdn/internal/core"
	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/obs"
	"gdn/internal/pkgobj"
)

// Tests of the proxy's verify memo: a whole read hashes a digest's
// content with SHA-256 once, and later whole reads of that digest are
// checked by size and CRC-32C against what the first one memoised.

// patterned returns n bytes that differ from chunk to chunk.
func patterned(n, mul, div int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * mul / div)
	}
	return b
}

// memoLen reads the number of digests p has memoised.
func memoLen(p *proxy) int {
	p.memo.mu.Lock()
	defer p.memo.mu.Unlock()
	return len(p.memo.m)
}

// TestProxyVerifyCounters: one 8 MiB whole read hashes 8 MiB with
// SHA-256 on a memo miss and none on the hit that follows, and checks
// 8 MiB with CRC-32C each time; a range read counts neither.
func TestProxyVerifyCounters(t *testing.T) {
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())
	oid := ids.New()
	content := patterned(8<<20, 29, 11)
	ca, _ := diskMaster(t, f, oid, t.TempDir(), content)
	p := msProxy(t, f, oid, ca)

	reads := []struct {
		name          string
		off, n        int64
		wantSHA, want int64
	}{
		{"miss", 0, -1, 8 << 20, 8 << 20},
		{"hit", 0, -1, 0, 8 << 20},
		{"range", 1 << 20, 1 << 20, 0, 0},
	}
	for _, r := range reads {
		sha, crc := mVerifySHA.Value(), mVerifyCRC.Value()
		got, err := readAll(p, r.off, r.n)
		if err != nil || !bytes.Equal(got, content[r.off:r.off+int64(len(got))]) {
			t.Fatalf("%s read: %d bytes, %v", r.name, len(got), err)
		}
		if d := mVerifySHA.Value() - sha; d != r.wantSHA {
			t.Errorf("%s read: sha256 verify bytes +%d, want +%d", r.name, d, r.wantSHA)
		}
		if d := mVerifyCRC.Value() - crc; d != r.want {
			t.Errorf("%s read: crc32c verify bytes +%d, want +%d", r.name, d, r.want)
		}
	}
}

// TestProxyMemoHitCatchesDiskFlip: a byte changed on the replica's
// disk after a memoised read fails the next whole read, which runs no
// SHA-256, with ErrDigestMismatch after every byte was delivered.
func TestProxyMemoHitCatchesDiskFlip(t *testing.T) {
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())
	oid := ids.New()
	content := patterned(3*pkgobj.DefaultChunkSize+100, 13, 7)
	ca, st := diskMaster(t, f, oid, t.TempDir(), content)
	p := msProxy(t, f, oid, ca)

	if got, err := readAll(p, 0, -1); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("clean read: %d bytes, %v", len(got), err)
	}
	flipOnDisk(t, st, content[pkgobj.DefaultChunkSize:2*pkgobj.DefaultChunkSize])
	sha := mVerifySHA.Value()
	got, err := readAll(p, 0, -1)
	if !errors.Is(err, core.ErrDigestMismatch) {
		t.Fatalf("memoised read after the disk change = %v, want a digest mismatch", err)
	}
	if len(got) != len(content) {
		t.Fatalf("delivered %d bytes, want all %d", len(got), len(content))
	}
	if d := mVerifySHA.Value() - sha; d != 0 {
		t.Fatalf("the read hashed %d bytes with SHA-256; a memo hit hashes none", d)
	}
}

// TestProxyMemoHitCatchesFlipAfterFailover: on a memo hit the CRC runs
// on across a mid-stream failover, so a changed chunk that arrives
// from the replica the read resumed on fails it.
func TestProxyMemoHitCatchesFlipAfterFailover(t *testing.T) {
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())
	oid := ids.New()
	// 8 MiB = 32 chunks, more than the stream's credit window: the
	// slave is still mid-transfer when its site goes down.
	content := patterned(8<<20, 31, 17)
	masterCA, st := diskMaster(t, f, oid, t.TempDir(), content)
	_, slaveCA, err := newPkgReplica(f, oid, "eu-client", MasterSlave, RoleSlave, []gls.ContactAddress{masterCA})
	if err != nil {
		t.Fatal(err)
	}
	p := msProxy(t, f, oid, masterCA, slaveCA)
	if got, err := readAll(p, 0, -1); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("clean read: %d bytes, %v", len(got), err)
	}
	// The slave copied its chunks before the change; only the master,
	// which the read resumes on, serves the changed last chunk.
	flipOnDisk(t, st, content[len(content)-pkgobj.DefaultChunkSize:])

	sha := mVerifySHA.Value()
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
		t.Fatalf("memoised read resumed onto a changed chunk = %v, want a digest mismatch", err)
	}
	if got.Len() != len(content) {
		t.Fatalf("delivered %d bytes, want all %d", got.Len(), len(content))
	}
	if d := mVerifySHA.Value() - sha; d != 0 {
		t.Fatalf("the read hashed %d bytes with SHA-256; a memo hit hashes none", d)
	}
}

// TestProxyResumeOnOtherDigestFailsAtOnce: a read that resumes on a
// replica whose head names other content than the first stream's
// fails with ErrDigestMismatch before any byte of the new stream
// reaches the consumer.
func TestProxyResumeOnOtherDigestFailsAtOnce(t *testing.T) {
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())
	oid := ids.New()
	old := patterned(8<<20, 31, 17)
	masterLR, masterCA, _ := diskMasterLR(t, f, oid, t.TempDir(), old)
	_, slaveCA, err := newPkgReplica(f, oid, "eu-client", MasterSlave, RoleSlave, []gls.ContactAddress{masterCA})
	if err != nil {
		t.Fatal(err)
	}
	// Cut the slave off, so the master's push of the rewrite fails and
	// the slave keeps the old content. Every byte of the new content
	// differs from the old one at the same offset.
	f.net.Partition("origin", "eu-client")
	fresh := make([]byte, len(old))
	for i := range old {
		fresh[i] = ^old[i]
	}
	if err := pkgobj.NewStub(masterLR).UploadFile("blob", fresh); err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("read resumed on other content = %v, want a digest mismatch", err)
	}
	if got.Len() >= len(old) || !bytes.Equal(got.Bytes(), old[:got.Len()]) {
		t.Fatalf("delivered %d bytes, not all from the first stream's content", got.Len())
	}
	if n := memoLen(p); n != 0 {
		t.Fatalf("a failed read memoised %d digests", n)
	}
}

// TestProxyMemoNeverLearnsFromFailedHash: a whole read whose SHA-256
// does not match leaves the memo empty, so the next read hashes again.
func TestProxyMemoNeverLearnsFromFailedHash(t *testing.T) {
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())
	oid := ids.New()
	content := patterned(3*pkgobj.DefaultChunkSize+100, 13, 7)
	ca, st := diskMaster(t, f, oid, t.TempDir(), content)
	flipOnDisk(t, st, content[:pkgobj.DefaultChunkSize])
	p := msProxy(t, f, oid, ca)

	for i := range 2 {
		sha := mVerifySHA.Value()
		if _, err := readAll(p, 0, -1); !errors.Is(err, core.ErrDigestMismatch) {
			t.Fatalf("read %d of changed content = %v, want a digest mismatch", i, err)
		}
		if d := mVerifySHA.Value() - sha; d != int64(len(content)) {
			t.Fatalf("read %d hashed %d bytes with SHA-256, want all %d", i, d, len(content))
		}
		if n := memoLen(p); n != 0 {
			t.Fatalf("read %d: a failed hash memoised %d digests", i, n)
		}
	}
}

// TestProxyConcurrentWholeReads: whole reads of one file through one
// proxy from several goroutines at once, misses and hits mixed, all
// verify, and the memo ends with the file's one digest.
func TestProxyConcurrentWholeReads(t *testing.T) {
	f := newFixture(t, nil)
	pkgobj.Register(f.rts["origin"].Registry())
	oid := ids.New()
	content := patterned(3*pkgobj.DefaultChunkSize+100, 13, 7)
	ca, _ := diskMaster(t, f, oid, t.TempDir(), content)
	p := msProxy(t, f, oid, ca)

	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 {
				if got, err := readAll(p, 0, -1); err != nil || !bytes.Equal(got, content) {
					t.Errorf("goroutine %d read %d: %d bytes, %v", g, i, len(got), err)
				}
			}
		}()
	}
	wg.Wait()
	if n := memoLen(p); n != 1 {
		t.Fatalf("memo holds %d digests, want 1", n)
	}
}

// TestVerifyMemoCap: the memo never holds more than memoCap digests,
// keeps the newest, re-adds a held digest without evicting, and is
// freed when the proxy closes.
func TestVerifyMemoCap(t *testing.T) {
	p := &proxy{}
	digest := func(i int) [sha256.Size]byte { return sha256.Sum256([]byte{byte(i), byte(i >> 8)}) }
	for i := range memoCap + 44 {
		p.memo.add(digest(i), memoEntry{size: int64(i), crc: uint32(i)})
		if n := memoLen(p); n > memoCap {
			t.Fatalf("after %d inserts the memo holds %d digests, cap %d", i+1, n, memoCap)
		}
	}
	last := memoCap + 43
	e, ok := p.memo.lookup(digest(last), int64(last))
	if !ok || e.crc != uint32(last) {
		t.Fatalf("newest digest: %+v, %v", e, ok)
	}
	if _, ok := p.memo.lookup(digest(last), int64(last)+1); ok {
		t.Fatal("a lookup with another size hit")
	}
	p.memo.add(digest(last), e)
	if n := memoLen(p); n != memoCap {
		t.Fatalf("re-adding a held digest left %d, want %d", n, memoCap)
	}
	p.Close()
	if p.memo.m != nil {
		t.Fatal("Close kept the memo")
	}
}

// FuzzBulkHead: the proxy-side decode of a stream's head frame and
// trailer must not panic, must allocate at most 32 bytes per input
// byte plus a constant, must accept a head only in the canonical
// encoding with a non-negative size, and must accept a trailer only
// when it states what the head did, byte for byte. The committed seeds
// are matching pairs for an 8 MiB and an empty item, trailers of
// another digest and another size, a truncated head, a head with a
// byte too many, a negative size and two empty inputs.
func FuzzBulkHead(f *testing.F) {
	f.Fuzz(func(t *testing.T, head, trailer []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, herr := decodeBulkHead(head)
		var m core.Manifest
		terr := herr
		if herr == nil {
			m, terr = decodeBulkTrailer(h, trailer)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10+32*uint64(len(head)+len(trailer)) {
			t.Fatalf("decoding %d+%d bytes allocated %d", len(head), len(trailer), alloc)
		}
		if herr != nil {
			return
		}
		if h.Size < 0 || !bytes.Equal(encodeBulkHead(h), head) {
			t.Fatalf("accepted head %x decodes to size %d, digest %x", head, h.Size, h.Digest)
		}
		if (terr == nil) != bytes.Equal(trailer, head) {
			t.Fatalf("trailer %x against head %x: %v", trailer, head, terr)
		}
		if terr == nil && !sameItem(m, h) {
			t.Fatalf("accepted trailer states size %d, head %d", m.Size, h.Size)
		}
	})
}

// BenchmarkProxyWholeRead reads an 8 MiB file whole through a proxy
// over netsim from a disk-backed master: "miss" forgets the memo
// before every read, so each one runs SHA-256 and CRC-32C; "hit" runs
// CRC-32C only.
func BenchmarkProxyWholeRead(b *testing.B) {
	f := newFixture(b, nil)
	pkgobj.Register(f.rts["origin"].Registry())
	oid := ids.New()
	content := patterned(8<<20, 29, 11)
	ca, _ := diskMaster(b, f, oid, b.TempDir(), content)
	p := msProxy(b, f, oid, ca)
	discard := func([]byte) error { return nil }
	for _, bc := range []struct {
		name   string
		forget bool
	}{{"miss", true}, {"hit", false}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(content)))
			b.ReportAllocs()
			for b.Loop() {
				if bc.forget {
					p.memo.reset()
				}
				if _, _, err := p.ReadBulk(obs.SpanContext{}, "blob", 0, -1, discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
