package store

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		data := []byte("the globe distribution network")
		ref, err := s.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		if ref != RefOf(data) {
			t.Fatalf("ref mismatch")
		}
		got, err := s.Get(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("content mismatch (dir=%q)", dir)
		}
		if !s.Has(ref) {
			t.Fatal("Has = false after Put")
		}
		if _, err := s.Get(RefOf([]byte("absent"))); !errors.Is(err, ErrMissing) {
			t.Fatalf("Get(absent) = %v, want ErrMissing", err)
		}
	}
}

func TestDedup(t *testing.T) {
	s := Mem()
	data := bytes.Repeat([]byte{7}, 1024)
	if _, err := s.Put(data); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(data); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Chunks != 1 || st.Dedup != 1 || st.Bytes != 1024 {
		t.Fatalf("stats = %+v, want 1 chunk, 1 dedup, 1024 bytes", st)
	}
}

func TestReleaseToZeroDeletesInPlainMode(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Put([]byte("ephemeral"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Retain([]Ref{ref, ref}); err != nil {
		t.Fatal(err)
	}
	s.Release([]Ref{ref})
	if !s.Has(ref) {
		t.Fatal("chunk deleted while still referenced")
	}
	s.Release([]Ref{ref})
	if s.Has(ref) {
		t.Fatal("chunk survived release to zero in plain mode")
	}
	if live := s.active.live.Load(); live != 0 {
		t.Fatalf("segment still counts %d live bytes", live)
	}
}

func TestRetainMissingIsAtomic(t *testing.T) {
	s := Mem()
	ref, _ := s.Put([]byte("present"))
	absent := RefOf([]byte("absent"))
	if err := s.Retain([]Ref{ref, absent}); !errors.Is(err, ErrMissing) {
		t.Fatalf("Retain = %v, want ErrMissing", err)
	}
	// The failed Retain must not have pinned the present chunk.
	s.Release([]Ref{ref})
	if !s.Has(ref) {
		t.Fatal("release of never-pinned chunk removed it")
	}
}

func TestCapacityEvictsColdLRU(t *testing.T) {
	s := Mem(WithCapacity(3 * 100))
	var refs []Ref
	for i := 0; i < 3; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 100)
		ref, _ := s.Put(data)
		refs = append(refs, ref)
	}
	// Touch chunk 0 so chunk 1 is the LRU victim.
	if _, err := s.Get(refs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(bytes.Repeat([]byte{9}, 100)); err != nil {
		t.Fatal(err)
	}
	if s.Has(refs[1]) {
		t.Fatal("LRU victim survived eviction")
	}
	if !s.Has(refs[0]) || !s.Has(refs[2]) {
		t.Fatal("recently used chunks were evicted")
	}
	if s.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Stats().Evictions)
	}
}

func TestCapacityNeverEvictsRetained(t *testing.T) {
	s := Mem(WithCapacity(100))
	pinned, _ := s.Put(bytes.Repeat([]byte{1}, 100))
	if err := s.Retain([]Ref{pinned}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(bytes.Repeat([]byte{2}, 100)); err != nil {
		t.Fatal(err)
	}
	if !s.Has(pinned) {
		t.Fatal("retained chunk was evicted")
	}
}

func TestPutPinnedAbovePinnedCapacity(t *testing.T) {
	// A cache store whose pinned working set already exceeds the
	// capacity must still accept pinned inserts (overshooting the
	// budget) — the insert may not evict itself or spin.
	s := Mem(WithCapacity(200))
	var pins []Ref
	for i := 0; i < 3; i++ {
		ref, err := s.PutPinned(bytes.Repeat([]byte{byte(i)}, 100))
		if err != nil {
			t.Fatal(err)
		}
		if !s.Has(ref) {
			t.Fatalf("pinned chunk %d evicted by its own insert", i)
		}
		pins = append(pins, ref)
	}
	if got := s.Stats().Bytes; got != 300 {
		t.Fatalf("pinned bytes = %d, want 300 (overshoot allowed)", got)
	}
	s.Release(pins)
	// With the pins gone, the capacity policy reclaims the overshoot.
	if got := s.Stats().Bytes; got > 200 {
		t.Fatalf("bytes after release = %d, want <= 200", got)
	}
}

func TestCacheModeKeepsReleasedChunks(t *testing.T) {
	s := Mem(WithCapacity(1 << 20))
	ref, _ := s.Put([]byte("cached content"))
	if err := s.Retain([]Ref{ref}); err != nil {
		t.Fatal(err)
	}
	s.Release([]Ref{ref})
	if !s.Has(ref) {
		t.Fatal("cache mode deleted a released chunk under capacity")
	}
}

func TestReopenIndexesAndSweepReclaimsOrphans(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := s.Put([]byte("kept across restart"))
	if err != nil {
		t.Fatal(err)
	}
	orphan, err := s.Put([]byte("orphaned by crash"))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash leaving a torn record as well: a whole header
	// whose body never reached the disk.
	seg, _ := chunkAt(t, s, keep)
	whole, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	var torn [recHeader]byte
	putHeader(&torn, RefOf([]byte("torn")), 4)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(torn[:], 't')); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// "Reboot": a fresh store over the same directory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(keep) || !s2.Has(orphan) {
		t.Fatal("reopen did not index surviving chunks")
	}
	if info, err := os.Stat(seg); err != nil || info.Size() != whole.Size() {
		t.Fatalf("torn record survived reopen: %v", err)
	}
	// Recovery pins what its manifests reference, then sweeps.
	if err := s2.Retain([]Ref{keep}); err != nil {
		t.Fatal(err)
	}
	chunks, _ := s2.Sweep()
	if chunks != 1 {
		t.Fatalf("swept %d chunks, want 1", chunks)
	}
	if s2.Has(orphan) {
		t.Fatal("orphan survived sweep")
	}
	got, err := s2.Get(keep)
	if err != nil || !bytes.Equal(got, []byte("kept across restart")) {
		t.Fatalf("kept chunk unreadable after sweep: %v", err)
	}
}

func TestGetVerifiesDiskCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Put([]byte("pristine"))
	if err != nil {
		t.Fatal(err)
	}
	name, off := chunkAt(t, s, ref)
	f, err := os.OpenFile(name, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt([]byte("tampered"), off)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ref); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get = %v, want ErrCorrupt", err)
	}
}

// TestGetChecksMemoryChunks: a byte changed in a memory chunk after
// admission fails the next read with ErrCorrupt, and that read
// quarantines the chunk: it answers missing, keeps its pin, and the
// next Put of the content heals it.
func TestGetChecksMemoryChunks(t *testing.T) {
	s := Mem()
	ref, err := s.PutPinned([]byte("pristine"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.Get(ref) // the store's own bytes
	if err != nil {
		t.Fatal(err)
	}
	data[3] ^= 0x20
	if _, err := s.Get(ref); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get = %v, want ErrCorrupt", err)
	}
	if _, _, err := s.GetZC(ref); !errors.Is(err, ErrMissing) {
		t.Fatalf("GetZC after the failed read = %v, want ErrMissing", err)
	}
	if s.Has(ref) || s.Lost() != 1 || s.Stats().Quarantined != 1 {
		t.Fatalf("corrupt chunk not quarantined: has %v, lost %d, %+v", s.Has(ref), s.Lost(), s.Stats())
	}
	if _, err := s.Put([]byte("pristine")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(ref); err != nil || string(got) != "pristine" {
		t.Fatalf("healed chunk: %q, %v", got, err)
	}
	if s.Stats().Repaired != 1 {
		t.Fatalf("repaired = %d, want 1", s.Stats().Repaired)
	}
	s.Release([]Ref{ref}) // the pin taken before the corruption
	if s.Has(ref) {
		t.Fatal("healed chunk lost its pin: it outlived its release")
	}
}

func TestMissing(t *testing.T) {
	s := Mem()
	have, _ := s.Put([]byte("have"))
	a := RefOf([]byte("a"))
	b := RefOf([]byte("b"))
	missing := s.Missing([]Ref{have, a, b, a, have})
	if len(missing) != 2 || missing[0] != a || missing[1] != b {
		t.Fatalf("Missing = %v", missing)
	}
}

func TestConcurrentPutRetainRelease(t *testing.T) {
	s := Mem(WithCapacity(64 << 10))
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				data := bytes.Repeat([]byte{byte(i % 16)}, 128)
				ref, err := s.Put(data)
				if err != nil {
					done <- err
					return
				}
				if err := s.Retain([]Ref{ref}); err != nil {
					done <- err
					return
				}
				if _, err := s.Get(ref); err != nil {
					done <- err
					return
				}
				s.Release([]Ref{ref})
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
