package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gdn/internal/obs"
	"gdn/internal/store"
)

// bulkSem is a semantics holding one bulk item, "f", whose manifest
// the test sets directly; every invocation is a no-op.
type bulkSem struct {
	st *store.Store
	m  Manifest
}

func (b *bulkSem) Invoke(Invocation) ([]byte, error) { return nil, nil }
func (b *bulkSem) MarshalState() ([]byte, error)     { return nil, nil }
func (b *bulkSem) UnmarshalState([]byte) error       { return nil }

func (b *bulkSem) FileManifest(path string) (Manifest, error) {
	if path != "f" {
		return Manifest{}, fmt.Errorf("bulkSem: no item %q", path)
	}
	m := b.m
	m.Chunks = slices.Clone(m.Chunks)
	return m, b.st.Retain(m.Refs())
}

// storeContent puts content into st in chunkSize pieces, pinned, and
// returns its manifest.
func storeContent(t *testing.T, st *store.Store, content []byte, chunkSize int) Manifest {
	t.Helper()
	m := Manifest{Size: int64(len(content)), Digest: sha256.Sum256(content)}
	for off := 0; off < len(content); off += chunkSize {
		body := content[off:min(off+chunkSize, len(content))]
		ref, err := st.PutPinned(body)
		if err != nil {
			t.Fatal(err)
		}
		m.Chunks = append(m.Chunks, store.Chunk{Ref: ref, Size: int64(len(body))})
	}
	return m
}

// testContent is three 1 KiB chunks' worth of distinct bytes.
func testContent() []byte {
	content := make([]byte, 3000)
	rand.New(rand.NewSource(3)).Read(content)
	return content
}

// readItem reads [off, off+n) of "f" through le.
func readItem(le *LocalExec, st *store.Store, off, n int64) ([]byte, error) {
	var buf bytes.Buffer
	_, err := le.ReadBulk(obs.SpanContext{}, st, "f", off, n, func(p []byte) error {
		buf.Write(p)
		return nil
	})
	return buf.Bytes(), err
}

// memoised is the number of manifests le holds as verified.
func (le *LocalExec) memoised() int {
	le.mu.Lock()
	defer le.mu.Unlock()
	return len(le.verified)
}

// TestWholeReadVerifiesOncePerManifest: the first whole-item read of a
// manifest hashes it and memoises it; later reads of that manifest
// reuse the memo; a write or a state install clears it, so the next
// read hashes again. Range reads neither check the digest nor add to
// the memo.
func TestWholeReadVerifiesOncePerManifest(t *testing.T) {
	st := store.Mem()
	content := testContent()
	le := NewLocalExec(&bulkSem{st: st, m: storeContent(t, st, content, 1024)})

	wholeRead := func(wantMemo int) {
		t.Helper()
		got, err := readItem(le, st, 0, -1)
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("whole read: %d bytes, %v", len(got), err)
		}
		if n := le.memoised(); n != wantMemo {
			t.Fatalf("%d manifests memoised, want %d", n, wantMemo)
		}
	}
	if got, err := readItem(le, st, 100, 1500); err != nil || !bytes.Equal(got, content[100:1600]) || le.memoised() != 0 {
		t.Fatalf("range read: %d bytes, %v, %d memoised", len(got), err, le.memoised())
	}
	wholeRead(1)
	wholeRead(1)
	if _, err := le.Execute(Invocation{Method: "get"}); err != nil || le.memoised() != 1 {
		t.Fatalf("a read invocation cleared the memo (%v)", err)
	}
	if _, err := le.Execute(Invocation{Method: "put", Write: true}); err != nil || le.memoised() != 0 {
		t.Fatalf("a write kept %d memoised manifests (%v)", le.memoised(), err)
	}
	wholeRead(1)
	if err := le.UnmarshalState(nil); err != nil || le.memoised() != 0 {
		t.Fatalf("a state install kept %d memoised manifests (%v)", le.memoised(), err)
	}
	wholeRead(1)
}

// TestWholeReadOfFalseManifestFailsEveryRead: a manifest whose chunks
// do not hash to its digest, or do not add up to its size, fails every
// whole-item read and is never memoised.
func TestWholeReadOfFalseManifestFailsEveryRead(t *testing.T) {
	st := store.Mem()
	content := testContent()
	good := storeContent(t, st, content, 1024)

	wrongDigest := good
	wrongDigest.Digest[0] ^= 1
	short := good
	short.Size++
	swapped := good
	swapped.Chunks = []store.Chunk{good.Chunks[1], good.Chunks[0], good.Chunks[2]}

	for _, tc := range []struct {
		name string
		m    Manifest
		want error
	}{
		{"wrong digest", wrongDigest, ErrDigestMismatch},
		{"swapped chunks", swapped, ErrDigestMismatch},
		{"size past the chunks", short, nil},
	} {
		le := NewLocalExec(&bulkSem{st: st, m: tc.m})
		for i := range 3 {
			_, err := readItem(le, st, 0, -1)
			if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Fatalf("%s: read %d = %v, want failure (%v)", tc.name, i, err, tc.want)
			}
			if le.memoised() != 0 {
				t.Fatalf("%s: a failed read memoised its manifest", tc.name)
			}
		}
	}

	// A memoised digest vouches only for the chunk list it was
	// verified with, not for other chunks claiming the same digest.
	sem := &bulkSem{st: st, m: good}
	le := NewLocalExec(sem)
	if _, err := readItem(le, st, 0, -1); err != nil {
		t.Fatal(err)
	}
	sem.m = swapped
	if _, err := readItem(le, st, 0, -1); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("swapped chunks under a memoised digest: read = %v, want a digest mismatch", err)
	}
}

// TestChangedMemoryChunkFailsReads: once a whole-item read has
// memoised a manifest, a byte changed in one of its memory chunks
// fails the next whole read as a digest mismatch, through the store's
// per-chunk check. That check quarantines the chunk, so later reads of
// the file fail as missing until a refill heals it.
func TestChangedMemoryChunkFailsReads(t *testing.T) {
	st := store.Mem()
	content := testContent()
	m := storeContent(t, st, content, 1024)
	le := NewLocalExec(&bulkSem{st: st, m: m})
	if _, err := readItem(le, st, 0, -1); err != nil {
		t.Fatal(err)
	}
	data, err := st.Get(m.Chunks[1].Ref) // the memory store's own bytes
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF

	if _, err := readItem(le, st, 0, -1); !errors.Is(err, ErrDigestMismatch) || !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("whole read of a changed chunk = %v, want a digest mismatch from the store check", err)
	}
	if _, err := readItem(le, st, 1500, 10); !errors.Is(err, store.ErrMissing) {
		t.Fatalf("range read inside the quarantined chunk = %v, want ErrMissing", err)
	}
	// The file's manifest cannot be pinned while one of its chunks is
	// quarantined, so a range over an intact chunk fails the same way.
	if _, err := readItem(le, st, 0, 1024); !errors.Is(err, store.ErrMissing) {
		t.Fatalf("range read of an intact chunk of a file with a quarantined one = %v, want ErrMissing", err)
	}
	// A refill of the chunk heals it in place, and the file reads whole.
	if _, err := st.Put(content[1024 : 1024+m.Chunks[1].Size]); err != nil {
		t.Fatal(err)
	}
	if got, err := readItem(le, st, 0, -1); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("whole read after the refill: %d bytes, %v", len(got), err)
	}
	if got, err := readItem(le, st, 0, 1024); err != nil || !bytes.Equal(got, content[:1024]) {
		t.Fatalf("range read of an intact chunk: %d bytes, %v", len(got), err)
	}
}

// TestWholeReadsRaceWrites runs whole-item reads against writes that
// keep clearing the memo; run it with -race.
func TestWholeReadsRaceWrites(t *testing.T) {
	st := store.Mem()
	content := testContent()
	le := NewLocalExec(&bulkSem{st: st, m: storeContent(t, st, content, 1024)})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				if got, err := readItem(le, st, 0, -1); err != nil || !bytes.Equal(got, content) {
					t.Errorf("whole read: %d bytes, %v", len(got), err)
					return
				}
			}
		}()
	}
	for range 50 {
		if _, err := le.Execute(Invocation{Method: "put", Write: true}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
