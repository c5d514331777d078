package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// corruptOnDisk flips the first byte of one chunk's body in its
// segment file without the store noticing — the silent media
// corruption the scrubber exists to catch.
func corruptOnDisk(t *testing.T, s *Store, ref Ref) {
	t.Helper()
	flipChunkByte(t, s, ref, 0)
}

// flipChunkByte flips byte i of a chunk's body where OpenChunk finds
// it: the segment file the handle names, at the handle's offset.
func flipChunkByte(t *testing.T, s *Store, ref Ref, i int64) {
	t.Helper()
	name, off := chunkAt(t, s, ref)
	f, err := os.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off+i); err != nil {
		t.Fatalf("read chunk byte: %v", err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off+i); err != nil {
		t.Fatalf("corrupt chunk byte: %v", err)
	}
}

// chunkAt returns the file and offset holding a chunk's body.
func chunkAt(t *testing.T, s *Store, ref Ref) (name string, off int64) {
	t.Helper()
	f, _, err := s.OpenChunk(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if off, err = f.Seek(0, io.SeekCurrent); err != nil {
		t.Fatal(err)
	}
	return f.Name(), off
}

func TestScrubDetectsAndQuarantines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	good, err := s.PutPinned([]byte("good chunk"))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := s.PutPinned([]byte("bad chunk"))
	if err != nil {
		t.Fatal(err)
	}
	corruptOnDisk(t, s, bad)

	res := s.Scrub(-1)
	if res.Chunks != 2 {
		t.Fatalf("scrubbed %d chunks, want 2", res.Chunks)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0] != bad {
		t.Fatalf("quarantined %v, want [%s]", res.Quarantined, bad.Short())
	}
	if !res.Wrapped {
		t.Fatalf("full scrub did not report wrapping")
	}

	// The good chunk still reads; the bad one answers missing (not
	// corrupt: readers should repair by refetch, not give up).
	if _, err := s.Get(good); err != nil {
		t.Fatalf("good chunk unreadable after scrub: %v", err)
	}
	if _, err := s.Get(bad); !errors.Is(err, ErrMissing) {
		t.Fatalf("quarantined chunk Get = %v, want ErrMissing", err)
	}
	if s.Has(bad) {
		t.Fatalf("quarantined chunk reported present")
	}
	if missing := s.Missing([]Ref{good, bad}); len(missing) != 1 || missing[0] != bad {
		t.Fatalf("Missing = %v, want [%s]", missing, bad.Short())
	}
	if err := s.Retain([]Ref{bad}); !errors.Is(err, ErrMissing) {
		t.Fatalf("Retain of quarantined chunk = %v, want ErrMissing", err)
	}

	// The corpse is preserved for post-mortem.
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, bad.String())); err != nil {
		t.Fatalf("quarantine file: %v", err)
	}

	st := s.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("stats.Quarantined = %d, want 1", st.Quarantined)
	}
	if st.Chunks != 1 {
		t.Fatalf("stats.Chunks = %d, want 1 (placeholder must not count)", st.Chunks)
	}
}

func TestQuarantineHealPreservesPins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	content := []byte("chunk that two manifests reference")
	ref, err := s.PutPinned(content)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Retain([]Ref{ref}); err != nil { // second manifest
		t.Fatal(err)
	}

	corruptOnDisk(t, s, ref)
	if got := s.Scrub(-1); len(got.Quarantined) != 1 {
		t.Fatalf("scrub quarantined %d chunks, want 1", len(got.Quarantined))
	}

	// Repair: a verified Put heals the ref in place.
	if _, err := s.Put(content); err != nil {
		t.Fatalf("healing put: %v", err)
	}
	if got, err := s.Get(ref); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("healed chunk Get = %q, %v", got, err)
	}
	if s.Stats().Repaired != 1 {
		t.Fatalf("stats.Repaired = %d, want 1", s.Stats().Repaired)
	}

	// The two pre-corruption pins survived: the first release keeps the
	// chunk alive, the second drops it (plain store).
	s.Release([]Ref{ref})
	if !s.Has(ref) {
		t.Fatalf("chunk deleted while a manifest still pins it")
	}
	s.Release([]Ref{ref})
	if s.Has(ref) {
		t.Fatalf("chunk survived release to zero in plain mode")
	}
}

func TestQuarantinedPlaceholderReleasedToZeroDrops(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.PutPinned([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	corruptOnDisk(t, s, ref)
	s.Scrub(-1)
	s.Release([]Ref{ref})
	sh := s.shardOf(ref)
	sh.mu.Lock()
	_, resident := sh.chunks[ref]
	sh.mu.Unlock()
	if resident {
		t.Fatalf("placeholder entry survived release of its last pin")
	}
}

func TestScrubUnreferencedCorruptChunkIsDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithCapacity(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Put([]byte("cold corrupt chunk"))
	if err != nil {
		t.Fatal(err)
	}
	corruptOnDisk(t, s, ref)
	res := s.Scrub(-1)
	if len(res.Quarantined) != 1 {
		t.Fatalf("quarantined %d, want 1", len(res.Quarantined))
	}
	if s.Has(ref) {
		t.Fatalf("unreferenced corrupt chunk still resident")
	}
	sh := s.shardOf(ref)
	sh.mu.Lock()
	_, resident := sh.chunks[ref]
	sh.mu.Unlock()
	if resident {
		t.Fatalf("unreferenced corrupt chunk left a placeholder entry")
	}
}

func TestScrubBoundedPassesCoverStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var refs []Ref
	for i := 0; i < 8; i++ {
		ref, err := s.PutPinned(bytes.Repeat([]byte{byte(i)}, 100))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	// Each pass is budgeted one chunk (100 bytes); eight passes must
	// visit all eight chunks exactly once before wrapping.
	seen := 0
	for i := 0; i < 8; i++ {
		res := s.Scrub(1)
		seen += res.Chunks
		if res.Wrapped && i < 7 {
			t.Fatalf("pass %d wrapped early", i)
		}
	}
	if seen != 8 {
		t.Fatalf("8 bounded passes visited %d chunks, want 8", seen)
	}
	if got := s.Stats().Scrubbed; got != 800 {
		t.Fatalf("stats.Scrubbed = %d, want 800", got)
	}
}

func TestStartScrubberFindsCorruption(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.PutPinned([]byte("rotting"))
	if err != nil {
		t.Fatal(err)
	}
	corruptOnDisk(t, s, ref)

	found := make(chan []Ref, 1)
	stop := s.StartScrubber(time.Millisecond, func(res ScrubResult) {
		if len(res.Quarantined) == 0 {
			return
		}
		select {
		case found <- res.Quarantined:
		default:
		}
	})
	defer stop()

	select {
	case bad := <-found:
		if len(bad) != 1 || bad[0] != ref {
			t.Fatalf("scrubber reported %v, want [%s]", bad, ref.Short())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("background scrubber never reported the corrupt chunk")
	}
	stop()
	if _, err := s.Get(ref); !errors.Is(err, ErrMissing) {
		t.Fatalf("corrupt chunk Get = %v, want ErrMissing", err)
	}
}
