package pkgobj

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gdn/internal/store"
)

// stageThroughStub is the reference Stage must match: a fresh package
// written through its stub, one file and one meta entry at a time.
func stageThroughStub(t *testing.T, files map[string][]byte, meta map[string]string) []byte {
	t.Helper()
	p := New()
	s := newLocalStub(t, p)
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := s.UploadFile(path, files[path]); err != nil {
			t.Fatal(err)
		}
	}
	for key, val := range meta {
		if err := s.SetMeta(key, val); err != nil {
			t.Fatal(err)
		}
	}
	state, err := p.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// randomFileSet draws a package that covers the chunking edge cases:
// an empty file, exact multiples of the chunk size, a file past the
// stub's 4 MiB upload slice, content repeated across files, and
// random sizes around chunk boundaries.
func randomFileSet(rng *rand.Rand) map[string][]byte {
	content := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	files := map[string][]byte{
		"empty":         {},
		"aligned.bin":   content((1 + rng.Intn(3)) * DefaultChunkSize),
		"big/multi.iso": content(4<<20 + rng.Intn(3*DefaultChunkSize)),
	}
	files["copy/of/aligned.bin"] = files["aligned.bin"]
	for i := rng.Intn(4); i > 0; i-- {
		files[fmt.Sprintf("src/f%d.c", i)] = content(rng.Intn(3*DefaultChunkSize + 2))
	}
	return files
}

// boundaryFileSets are the chunking edges one at a time: empty, one
// byte, one byte short of a chunk, exactly one chunk (whose digest is
// its chunk's ref), one byte over, exactly two chunks, and two files
// with the same one-chunk content.
func boundaryFileSets() map[string]map[string][]byte {
	rng := rand.New(rand.NewSource(7))
	content := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	sets := map[string]map[string][]byte{}
	for _, n := range []int{0, 1, DefaultChunkSize - 1, DefaultChunkSize, DefaultChunkSize + 1, 2 * DefaultChunkSize} {
		sets[fmt.Sprintf("%d bytes", n)] = map[string][]byte{"f.bin": content(n)}
	}
	twin := content(DefaultChunkSize / 3)
	sets["twin one-chunk files"] = map[string][]byte{"a.txt": twin, "copy/a.txt": twin}
	return sets
}

// TestStageMatchesStubStaging: Stage's state is byte-identical to the
// stub-built one over the boundary sizes and seeded random file sets,
// and every chunk the state names has a body that hashes to its ref.
func TestStageMatchesStubStaging(t *testing.T) {
	sets := boundaryFileSets()
	for seed := int64(1); seed <= 6; seed++ {
		sets[fmt.Sprintf("seed %d", seed)] = randomFileSet(rand.New(rand.NewSource(seed)))
	}
	for name, files := range sets {
		meta := map[string]string{"description": name, MetaModified: "1700000000", "unset": ""}
		state, chunks, err := Stage(files, meta)
		if err != nil {
			t.Fatal(err)
		}
		if want := stageThroughStub(t, files, meta); !bytes.Equal(state, want) {
			t.Fatalf("%s: staged state differs from the stub-built one (%d vs %d bytes)", name, len(state), len(want))
		}
		refs, err := StateRefs(state)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs {
			body, err := chunks.Get(ref)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if store.RefOf(body) != ref {
				t.Fatalf("%s: body for %s hashes elsewhere", name, ref.Short())
			}
		}
	}
}

func TestStageRejectsBadPath(t *testing.T) {
	for _, path := range []string{"", "/abs", "a/../b", "a//b"} {
		if _, _, err := Stage(map[string][]byte{"ok": nil, path: []byte("x")}, nil); !errors.Is(err, ErrBadPath) {
			t.Fatalf("Stage(%q) = %v, want ErrBadPath", path, err)
		}
	}
}

// BenchmarkStage stages 1 MiB over three files, and a publish-sized
// package of four files of 16–256 KiB, each at most one chunk. Its
// allocations are the state and the manifests; none is content-sized.
func BenchmarkStage(b *testing.B) {
	for _, c := range []struct {
		name  string
		sizes []int
	}{
		{"1MiB-3files", []int{600 << 10, 300 << 10, 124 << 10}},
		{"publish-4files", []int{16 << 10, 64 << 10, 144 << 10, 256 << 10}},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			files := map[string][]byte{}
			total := 0
			for i, n := range c.sizes {
				files[fmt.Sprintf("part%d.bin", i)] = make([]byte, n)
				rng.Read(files[fmt.Sprintf("part%d.bin", i)])
				total += n
			}
			meta := map[string]string{MetaModified: "1700000000"}
			b.SetBytes(int64(total))
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := Stage(files, meta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
