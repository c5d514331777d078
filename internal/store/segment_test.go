package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// smallChunks returns n distinct chunk bodies of 1 to 64 bytes, so a
// batch spans few enough bytes to cut at every one of them.
func smallChunks(seed byte, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = bytes.Repeat([]byte{seed, byte(i)}, 1+(int(seed)*7+i*13)%32)
	}
	return out
}

// atEveryCut opens a copy of a store at every crash image of one of
// its segments: for each byte offset from from to the segment's end,
// the file ends there (the size a crash left), or keeps its full length
// with everything after the cut zeroed (the size reached the disk, the
// data did not). The other segments are copied as they are; check
// looks at each reopened store.
func atEveryCut(t *testing.T, segs map[uint32][]byte, cutSeg uint32, from int, check func(c *Store, name string)) {
	t.Helper()
	full := segs[cutSeg]
	copyDir := filepath.Join(t.TempDir(), "copy")
	for cut := from; cut <= len(full); cut++ {
		for _, zeroed := range []bool{false, true} {
			image := append([]byte(nil), full[:cut]...)
			if zeroed {
				image = append(image, make([]byte, len(full)-cut)...)
			}
			name := fmt.Sprintf("%s cut at %d (zeroed tail %v)", segName(cutSeg), cut, zeroed)
			if err := os.RemoveAll(copyDir); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(copyDir, 0o700); err != nil {
				t.Fatal(err)
			}
			for id, data := range segs {
				if id == cutSeg {
					data = image
				}
				if err := os.WriteFile(filepath.Join(copyDir, segName(id)), data, 0o600); err != nil {
					t.Fatal(err)
				}
			}
			c, err := Open(copyDir)
			if err != nil {
				t.Fatalf("%s: Open: %v", name, err)
			}
			check(c, name)
			c.Close()
		}
	}
}

// readSeg returns the bytes of one segment file of dir.
func readSeg(t *testing.T, dir string, id uint32) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, segName(id)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// verifies fails the test unless every body reads back whole from c.
func verifies(t *testing.T, c *Store, name, what string, bodies [][]byte) {
	t.Helper()
	for _, body := range bodies {
		if got, err := c.Get(RefOf(body)); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%s: %s chunk %s: %q, %v", name, what, RefOf(body).Short(), got, err)
		}
	}
}

// TestIngestCrashAtEveryByte opens a store at every crash image (see
// atEveryCut) of a segment whose last records were being written:
//   - an Ingest batch: every chunk acknowledged before the batch reads
//     back verified, no read of a batch chunk returns wrong bytes (it is
//     absent or ErrCorrupt), and re-ingesting the batch heals it;
//   - a second copy of an acknowledged chunk, as two concurrent uploads
//     of the same content append: the acknowledged copy still verifies;
//   - the copies compaction was making of a sealed segment's live
//     records: the originals still verify.
func TestIngestCrashAtEveryByte(t *testing.T) {
	t.Run("batch", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		acked := smallChunks(1, 4)
		if err := s.Ingest(&frameStream{bodies: acked}); err != nil {
			t.Fatal(err)
		}
		before := len(readSeg(t, dir, 1))
		batch := smallChunks(2, 3)
		if err := s.Ingest(&frameStream{bodies: batch}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		atEveryCut(t, map[uint32][]byte{1: readSeg(t, dir, 1)}, 1, before, func(c *Store, name string) {
			verifies(t, c, name, "acknowledged", acked)
			for _, body := range batch {
				got, err := c.Get(RefOf(body))
				if err == nil && !bytes.Equal(got, body) {
					t.Fatalf("%s: batch chunk read back wrong bytes %q", name, got)
				}
				if err != nil && !errors.Is(err, ErrMissing) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: batch chunk: %v", name, err)
				}
			}
			if err := c.Ingest(&frameStream{bodies: batch}); err != nil {
				t.Fatalf("%s: re-ingest: %v", name, err)
			}
			verifies(t, c, name, "re-ingested", append(append([][]byte(nil), acked...), batch...))
		})
	})
	t.Run("duplicate upload", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		acked := smallChunks(3, 3)
		if err := s.Ingest(&frameStream{bodies: acked}); err != nil {
			t.Fatal(err)
		}
		before := len(readSeg(t, dir, 1))
		// The second of two uploads that both found the chunk missing
		// appends it again after the first was acknowledged.
		w, err := s.appendRecord(RefOf(acked[1]), acked[1])
		if err == nil {
			err = s.commit([]written{w}, false)
		}
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		atEveryCut(t, map[uint32][]byte{1: readSeg(t, dir, 1)}, 1, before, func(c *Store, name string) {
			verifies(t, c, name, "acknowledged", acked)
		})
	})
	t.Run("compaction copy", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		kept := smallChunks(4, 3)
		for _, body := range kept {
			if _, err := s.PutPinned(body); err != nil {
				t.Fatal(err)
			}
		}
		dead, err := s.PutPinned(bytes.Repeat([]byte{5}, 512))
		if err != nil {
			t.Fatal(err)
		}
		s.segMu.Lock()
		s.sealLocked(s.active)
		s.segMu.Unlock()
		sealed := readSeg(t, dir, 1)
		s.Release([]Ref{dead})
		s.reclaimWG.Wait()
		copies := readSeg(t, dir, 2)
		s.Close()
		// A crash before compaction unlinked the source keeps it whole.
		atEveryCut(t, map[uint32][]byte{1: sealed, 2: copies}, 2, 0, func(c *Store, name string) {
			verifies(t, c, name, "compacted", kept)
		})
	})
}

// TestIngestStreamFailureAdmitsNothing: an upload whose stream fails
// midway indexes none of the chunks it had already appended.
func TestIngestStreamFailureAdmitsNothing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	chunks := smallChunks(3, 4)
	if err := s.Ingest(&frameStream{bodies: chunks, err: errors.New("stream broke")}); err == nil {
		t.Fatal("Ingest succeeded")
	}
	for _, c := range chunks {
		if s.Has(RefOf(c)) {
			t.Fatalf("chunk %s of a failed upload was indexed", RefOf(c).Short())
		}
	}
	if st := s.Stats(); st.Chunks != 0 || st.Bytes != 0 {
		t.Fatalf("stats after a failed upload: %+v", st)
	}
	if live := s.active.live.Load(); live != 0 {
		t.Fatalf("failed upload left %d live bytes", live)
	}
}

// TestOpenRefusesFanoutLayout: a directory in the one-file-per-chunk
// layout fails Open with an error naming the chunk directory, and is
// left byte-identical.
func TestOpenRefusesFanoutLayout(t *testing.T) {
	dir := t.TempDir()
	ref := RefOf([]byte("old layout"))
	hexRef := ref.String()
	files := map[string][]byte{
		filepath.Join(hexRef[:2], hexRef):        []byte("old layout"),
		filepath.Join(quarantineDir, "whatever"): []byte("post-mortem"),
	}
	for name, data := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o700); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotDir(t, dir)
	_, err := Open(dir)
	if err == nil {
		t.Fatal("Open accepted the one-file-per-chunk layout")
	}
	if fanout := filepath.Join(dir, hexRef[:2]); !bytes.Contains([]byte(err.Error()), []byte(fanout)) {
		t.Fatalf("Open error %q does not name %s", err, fanout)
	}
	sameDir(t, dir, want)
}

// snapshotDir maps every path under dir to its contents ("dir" for a
// directory).
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	got := make(map[string]string)
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			got[p] = "dir"
			return err
		}
		data, err := os.ReadFile(p)
		got[p] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// sameDir fails the test unless dir still matches want.
func sameDir(t *testing.T, dir string, want map[string]string) {
	t.Helper()
	got := snapshotDir(t, dir)
	if len(got) != len(want) {
		t.Fatalf("directory changed: %v, want %v", got, want)
	}
	for p, v := range want {
		if got[p] != v {
			t.Fatalf("%s changed", p)
		}
	}
}

// TestOpenRefusesDamagedOlderSegment: a record header that fails its
// CRC in a segment older than the newest is damage, not a crash's torn
// tail. Open fails naming the segment and offset and leaves the
// directory byte-identical, instead of cutting away the records after
// it.
func TestOpenRefusesDamagedOlderSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for i := range 3 {
		if _, err := s.PutPinned([]byte(fmt.Sprintf("chunk %d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.PutPinned([]byte(fmt.Sprintf("second chunk %d", i))); err != nil {
			t.Fatal(err)
		}
		offs = append(offs, s.active.size.Load())
		s.segMu.Lock()
		s.sealLocked(s.active)
		s.segMu.Unlock()
	}
	s.Close()
	// Rot the second record's header in the middle segment.
	second := int64(recordLen(int64(len("chunk 1"))))
	name := filepath.Join(dir, segName(2))
	data := readSeg(t, dir, 2)
	if int64(len(data)) != offs[1] {
		t.Fatalf("%s holds %d bytes, want %d", name, len(data), offs[1])
	}
	data[second+33] ^= 0x40
	if err := os.WriteFile(name, data, 0o600); err != nil {
		t.Fatal(err)
	}
	want := snapshotDir(t, dir)
	_, err = Open(dir)
	if err == nil {
		t.Fatal("Open accepted a damaged older segment")
	}
	if msg := err.Error(); !strings.Contains(msg, name) || !strings.Contains(msg, fmt.Sprintf("offset %d", second)) {
		t.Fatalf("Open error %q does not name %s at offset %d", msg, name, second)
	}
	sameDir(t, dir, want)
}

// TestReopenAppendsToNewestSegment: a reopened store appends to its
// newest segment instead of starting a segment per restart.
func TestReopenAppendsToNewestSegment(t *testing.T) {
	dir := t.TempDir()
	var bodies [][]byte
	for i := range 3 {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		verifies(t, s, fmt.Sprintf("start %d", i), "earlier", bodies)
		bodies = append(bodies, []byte(fmt.Sprintf("written after start %d", i)))
		if _, err := s.Put(bodies[i]); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || des[0].Name() != segName(1) {
		t.Fatalf("directory after three starts: %v, want only %s", des, segName(1))
	}
}

// diskBytes sums the sizes of the store's segment files.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, d := range des {
		if _, ok := parseSegName(d.Name()); ok {
			info, err := d.Info()
			if err != nil {
				t.Fatal(err)
			}
			n += info.Size()
		}
	}
	return n
}

// TestCapacityChurnBoundsDisk streams several segments' worth of 1 MiB
// chunks through a capacity-bound store, pinning one chunk in four so
// that sealed segments stay partly live. After every upload, once the
// reclaimer is idle, the segment files hold at most twice the live
// record bytes plus one segment; the first segment has been compacted
// away, and every pinned chunk still reads back verified.
func TestCapacityChurnBoundsDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("writes about 200 MiB")
	}
	dir := t.TempDir()
	s, err := Open(dir, WithCapacity(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const chunk = 1 << 20
	var pinned [][]byte
	body := func(i int) []byte {
		b := make([]byte, chunk)
		binary.LittleEndian.PutUint64(b, uint64(i))
		return b
	}
	for batch, n := 0, 0; n < 3*segmentBytes/chunk; batch++ {
		var bodies [][]byte
		for range 6 {
			bodies = append(bodies, body(n))
			n++
		}
		if err := s.Ingest(&frameStream{bodies: bodies}); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			b := body(n)
			n++
			if _, err := s.PutPinned(b); err != nil {
				t.Fatal(err)
			}
			pinned = append(pinned, b)
		}
		s.reclaimWG.Wait()
		st := s.Stats()
		live := st.Bytes + int64(st.Chunks)*recHeader
		if disk := diskBytes(t, dir); disk > 2*live+segmentBytes {
			t.Fatalf("after upload %d: %d bytes on disk for %d live, over the bound %d", batch, disk, live, 2*live+segmentBytes)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatalf("the first segment was never reclaimed: %v", err)
	}
	for _, b := range pinned {
		if got, err := s.Get(RefOf(b)); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("pinned chunk %s after churn: %v", RefOf(b).Short(), err)
		}
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("the churn evicted nothing")
	}
}

// TestCompactionQuarantinesCorruptRecord: a live record that fails its
// check while compaction copies it is quarantined, not copied.
func TestCompactionQuarantinesCorruptRecord(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keep, err := s.PutPinned([]byte("kept through compaction"))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := s.PutPinned([]byte("rots before compaction"))
	if err != nil {
		t.Fatal(err)
	}
	dead, err := s.PutPinned(bytes.Repeat([]byte{9}, 4096))
	if err != nil {
		t.Fatal(err)
	}
	corruptOnDisk(t, s, bad)
	first := s.active
	// Seal the segment and release the bulk of it: it is now at most
	// half live, and the reclaimer compacts it.
	s.segMu.Lock()
	s.sealLocked(first)
	s.segMu.Unlock()
	s.Release([]Ref{dead})
	s.reclaimWG.Wait()
	if _, err := os.Stat(filepath.Join(s.dir, segName(first.id))); !os.IsNotExist(err) {
		t.Fatalf("compacted segment still on disk: %v", err)
	}
	if got, err := s.Get(keep); err != nil || string(got) != "kept through compaction" {
		t.Fatalf("moved chunk: %q, %v", got, err)
	}
	if _, err := s.Get(bad); !errors.Is(err, ErrMissing) {
		t.Fatalf("corrupt chunk after compaction: %v, want ErrMissing", err)
	}
	if s.Stats().Quarantined != 1 || s.Lost() != 1 {
		t.Fatalf("stats %+v, lost %d; want the corrupt chunk quarantined", s.Stats(), s.Lost())
	}
	if _, err := os.Stat(filepath.Join(s.dir, quarantineDir, bad.String())); err != nil {
		t.Fatalf("post-mortem copy: %v", err)
	}
}

// TestConcurrentReadsSurviveCompaction runs writers, readers and a
// goroutine that keeps sealing the active segment, so records are
// compacted and segments unlinked under reads that hold their old
// location. No read of a pinned chunk fails or returns other bytes,
// through GetZC or through an OpenChunk handle; compaction moves some
// of them, and after a reopen every chunk still pinned is there. Run it
// with -race.
func TestConcurrentReadsSurviveCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	body := func(w, i int) []byte {
		b := bytes.Repeat([]byte{byte(w), byte(i)}, 512+i%7*300)
		binary.LittleEndian.PutUint32(b, uint32(w<<16|i))
		return b
	}
	check := func(b []byte) error {
		ref := RefOf(b)
		got, err := s.Get(ref)
		if err != nil || !bytes.Equal(got, b) {
			return fmt.Errorf("Get %s: %v", ref.Short(), err)
		}
		f, size, err := s.OpenChunk(ref)
		if err != nil {
			return fmt.Errorf("OpenChunk %s: %v", ref.Short(), err)
		}
		defer f.Close()
		got = make([]byte, size)
		if _, err := io.ReadFull(f, got); err != nil || !bytes.Equal(got, b) {
			return fmt.Errorf("chunk %s through its handle: %v", ref.Short(), err)
		}
		return nil
	}
	const workers, rounds = 3, 150
	kept := make([][][]byte, workers)
	firstSeg := make([][]uint32, workers) // where each kept chunk was written
	done := make(chan struct{})
	var wg, sealer sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				b := body(w, i)
				if i%3 == 0 {
					if err := s.Ingest(&frameStream{bodies: [][]byte{b}}); err != nil {
						t.Error(err)
						return
					}
					if err := s.Retain([]Ref{RefOf(b)}); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := s.PutPinned(b); err != nil {
					t.Error(err)
					return
				}
				if err := check(b); err != nil {
					t.Error(err)
					return
				}
				if i%4 == 0 {
					where, _, _, err := s.locate(RefOf(b), false)
					if err != nil {
						t.Error(err)
						return
					}
					kept[w] = append(kept[w], b)
					firstSeg[w] = append(firstSeg[w], where.seg.id)
				} else {
					s.Release([]Ref{RefOf(b)})
				}
				for _, k := range kept[w] {
					if err := check(k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	sealer.Add(1)
	go func() {
		defer sealer.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			s.segMu.Lock()
			if s.active != nil {
				s.sealLocked(s.active)
			}
			s.segMu.Unlock()
			time.Sleep(200 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(done)
	sealer.Wait()
	s.reclaimWG.Wait()
	moved := 0
	for w, ks := range kept {
		for i, k := range ks {
			if where, _, _, err := s.locate(RefOf(k), false); err == nil && where.seg.id != firstSeg[w][i] {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("compaction moved no pinned chunk")
	}
	s.Close()

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, ks := range kept {
		for _, k := range ks {
			if err := check(k); err != nil {
				t.Fatalf("after reopen: %v", err)
			}
		}
	}
}

// FuzzSegmentOpen opens a store over one arbitrary segment file. Open
// never panics or fails on content alone, indexes only records whose
// header CRC holds and whose body fits in the file, lets a later copy
// of a ref supersede the indexed one only when its body hashes to the
// ref, cuts the file after the last whole record, and no read returns
// bytes other than a record's body.
func FuzzSegmentOpen(f *testing.F) {
	var seg []byte
	for _, body := range [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{7}, 300)} {
		var h [recHeader]byte
		putHeader(&h, RefOf(body), int64(len(body)))
		seg = append(append(seg, h[:]...), body...)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-1])
	f.Add(append(append([]byte(nil), seg...), make([]byte, recHeader)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		name := filepath.Join(dir, segName(1))
		if err := os.WriteFile(name, data, 0o600); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		st := s.Stats()
		if int64(st.Chunks)*recHeader > int64(len(data)) || st.Bytes > int64(len(data)) {
			t.Fatalf("%d bytes indexed as %d chunks of %d bytes", len(data), st.Chunks, st.Bytes)
		}
		// Walk the records as the layout defines them: the first copy
		// of each ref, replaced by each later copy whose body verifies.
		want := make(map[Ref][2]int64)
		off := 0
		for len(data)-off >= recHeader {
			ref, size, ok := parseHeader((*[recHeader]byte)(data[off:]))
			if !ok || size > int64(len(data)-off-recHeader) {
				break
			}
			body := int64(off + recHeader)
			if _, dup := want[ref]; !dup || RefOf(data[body:body+size]) == ref {
				want[ref] = [2]int64{body, size}
			}
			off += recHeader + int(size)
		}
		if info, err := os.Stat(name); err != nil || info.Size() != int64(off) {
			t.Fatalf("segment not cut after its last whole record at %d: %v, %v", off, info, err)
		}
		if st.Chunks != len(want) {
			t.Fatalf("indexed %d chunks, want %d", st.Chunks, len(want))
		}
		for _, ref := range s.Refs() {
			rec, ok := want[ref]
			where, size, _, err := s.locate(ref, false)
			if !ok || err != nil || size != rec[1] || where.off != rec[0] {
				t.Fatalf("ref %s indexed at %d with %d bytes (%v), want body at %d of %d bytes",
					ref.Short(), where.off, size, err, rec[0], rec[1])
			}
		}
		for ref, rec := range want {
			got, err := s.Get(ref)
			if err == nil && !bytes.Equal(got, data[rec[0]:rec[0]+rec[1]]) {
				t.Fatalf("ref %s read back bytes that are not its record's body", ref.Short())
			}
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrMissing) {
				t.Fatalf("ref %s: %v", ref.Short(), err)
			}
		}
	})
}
