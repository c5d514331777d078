package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// frameStream replays bodies through one reused buffer, overwritten on
// every Recv, as rpc.UploadReader recycles its frames. After the
// bodies it returns err, or io.EOF when err is nil.
type frameStream struct {
	bodies [][]byte
	err    error
	buf    []byte
	next   int
}

func (f *frameStream) Recv() ([]byte, error) {
	for i := range f.buf {
		f.buf[i] = 0xAA
	}
	if f.next == len(f.bodies) {
		if f.err != nil {
			return nil, f.err
		}
		return nil, io.EOF
	}
	f.buf = append(f.buf[:0], f.bodies[f.next]...)
	f.next++
	return f.buf, nil
}

// randomChunks returns n distinct chunk bodies of up to 256 KiB.
func randomChunks(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 1+rng.Intn(chunkReadBuf))
		rng.Read(out[i])
	}
	return out
}

// tmpFiles lists the temporary files left under dir.
func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	var left []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.Contains(d.Name(), ".tmp") {
			left = append(left, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// TestIngestIsDurable: once Ingest returns, a fresh Open of the
// directory indexes every chunk and GetZC reads each one back
// verified; a chunk the stream repeats is stored once.
func TestIngestIsDurable(t *testing.T) {
	chunks := randomChunks(1, 9)
	stream := append(append([][]byte(nil), chunks...), chunks[0], chunks[4], chunks[4])
	for _, dir := range []string{"", t.TempDir()} {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Ingest(&frameStream{bodies: stream}); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Chunks != len(chunks) || st.Dedup != 3 {
			t.Fatalf("dir=%q: stats %+v, want %d chunks and 3 dedups", dir, st, len(chunks))
		}
		if dir == "" {
			for _, c := range chunks {
				if got, err := s.Get(RefOf(c)); err != nil || !bytes.Equal(got, c) {
					t.Fatalf("memory store: chunk %s: %v", RefOf(c).Short(), err)
				}
			}
			continue
		}
		if left := tmpFiles(t, dir); len(left) != 0 {
			t.Fatalf("temporary files left: %v", left)
		}
		reopened, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if n := reopened.Stats().Chunks; n != len(chunks) {
			t.Fatalf("reopened store indexes %d chunks, want %d", n, len(chunks))
		}
		for _, c := range chunks {
			data, release, err := reopened.GetZC(RefOf(c))
			if err != nil {
				t.Fatalf("chunk %s after reopen: %v", RefOf(c).Short(), err)
			}
			if !bytes.Equal(data, c) {
				t.Fatalf("chunk %s reads back different bytes", RefOf(c).Short())
			}
			if release != nil {
				release()
			}
		}
	}
}

// TestIngestFailureLeavesNothing: a chunk that cannot be written fails
// the whole call, and leaves neither an index entry nor a temporary
// file — whether the first segment cannot be created (a regular file
// sits at its path) or the segment roll the failing chunk needs cannot
// (a directory sits at the next segment's path, after two chunks of
// the upload went into the full segment before it). A failing stream
// fails the call the same way.
func TestIngestFailureLeavesNothing(t *testing.T) {
	chunks := randomChunks(2, 6)
	bad := RefOf(chunks[2])
	errStream := errors.New("stream broke")
	for _, tc := range []struct {
		name  string
		block func(s *Store) error
		err   error
	}{
		{"next segment is a file", func(s *Store) error {
			return os.WriteFile(filepath.Join(s.dir, segName(1)), nil, 0o600)
		}, nil},
		{"segment roll hits a directory", func(s *Store) error {
			// Fill segment 1 so that chunks 0 and 1 still fit and chunk 2
			// must roll to segment 2.
			used := recordLen(int64(len(chunks[0]))) + recordLen(int64(len(chunks[1])))
			if _, err := s.Put(make([]byte, segmentBytes-used-recHeader)); err != nil {
				return err
			}
			return os.Mkdir(filepath.Join(s.dir, segName(2)), 0o700)
		}, nil},
		{"stream fails", nil, errStream},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if tc.block != nil {
				if err := tc.block(s); err != nil {
					t.Fatal(err)
				}
			}
			src := &frameStream{bodies: chunks, err: tc.err}
			if tc.err != nil {
				src.bodies = chunks[:2]
			}
			err = s.Ingest(src)
			if err == nil {
				t.Fatal("Ingest succeeded")
			}
			if tc.err != nil && !errors.Is(err, tc.err) {
				t.Fatalf("Ingest = %v, want the stream's error", err)
			}
			if s.Has(bad) {
				t.Fatal("the failed chunk was indexed")
			}
			if left := tmpFiles(t, dir); len(left) != 0 {
				t.Fatalf("temporary files left: %v", left)
			}
		})
	}
}

// stampedChunks returns n 256 KiB chunks, distinct from those of every
// other call with a different stamp.
func stampedChunks(stamp, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, chunkReadBuf)
		binary.LittleEndian.PutUint64(out[i], uint64(stamp))
		out[i][8] = byte(i)
	}
	return out
}

// BenchmarkPut inserts a fresh 256 KiB chunk into a memory store, one
// SHA-256 of it per op (the pin is dropped again so the store does not
// grow).
func BenchmarkPut(b *testing.B) {
	s := Mem()
	data := make([]byte, chunkReadBuf)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(data, uint64(i))
		ref, err := s.PutPinned(data)
		if err != nil {
			b.Fatal(err)
		}
		s.Release([]Ref{ref})
	}
}

// BenchmarkIngest uploads 1 and 4 fresh 256 KiB chunks per op into a
// disk store; the 4-chunk op against four 1-chunk ops is what sharing
// one fsync among an upload's chunks saves. The chunks are released
// again between ops, off the clock.
func BenchmarkIngest(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("chunks=%d", n), func(b *testing.B) {
			s, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 0, chunkReadBuf)
			b.SetBytes(int64(n * chunkReadBuf))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				chunks := stampedChunks(i, n)
				refs := make([]Ref, n)
				for j, c := range chunks {
					refs[j] = RefOf(c)
				}
				b.StartTimer()
				if err := s.Ingest(&frameStream{bodies: chunks, buf: buf}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := s.Retain(refs); err != nil {
					b.Fatal(err)
				}
				s.Release(refs)
				b.StartTimer()
			}
		})
	}
}

// BenchmarkIngestRelease runs the chunk store's share of one publish
// cycle on a disk store: upload 1 or 4 fresh 256 KiB chunks, pin them
// as a created replica does, and release them as its removal does.
// The dead records it leaves are reclaimed in the background.
func BenchmarkIngestRelease(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("chunks=%d", n), func(b *testing.B) {
			s, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			buf := make([]byte, 0, chunkReadBuf)
			b.SetBytes(int64(n * chunkReadBuf))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				chunks := stampedChunks(i, n)
				refs := make([]Ref, n)
				for j, c := range chunks {
					refs[j] = RefOf(c)
				}
				b.StartTimer()
				if err := s.Ingest(&frameStream{bodies: chunks, buf: buf}); err != nil {
					b.Fatal(err)
				}
				if err := s.Retain(refs); err != nil {
					b.Fatal(err)
				}
				s.Release(refs)
			}
		})
	}
}
