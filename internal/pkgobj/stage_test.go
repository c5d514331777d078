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

// TestStageMatchesStubStaging: Stage's state is byte-identical to the
// stub-built one over seeded random file sets, and every chunk the
// state names has a body that hashes to its ref.
func TestStageMatchesStubStaging(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		files := randomFileSet(rng)
		meta := map[string]string{"description": fmt.Sprintf("seed %d", seed), MetaModified: "1700000000", "unset": ""}
		state, chunks, err := Stage(files, meta)
		if err != nil {
			t.Fatal(err)
		}
		if want := stageThroughStub(t, files, meta); !bytes.Equal(state, want) {
			t.Fatalf("seed %d: staged state differs from the stub-built one (%d vs %d bytes)", seed, len(state), len(want))
		}
		refs, err := StateRefs(state)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs {
			body, err := chunks.Get(ref)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if store.RefOf(body) != ref {
				t.Fatalf("seed %d: body for %s hashes elsewhere", seed, ref.Short())
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

// BenchmarkStage stages 1 MiB over three files. Its allocations are
// the state and the manifests; none is content-sized.
func BenchmarkStage(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	files := map[string][]byte{}
	for i, n := range []int{600 << 10, 300 << 10, 124 << 10} {
		files[fmt.Sprintf("part%d.bin", i)] = make([]byte, n)
		rng.Read(files[fmt.Sprintf("part%d.bin", i)])
	}
	meta := map[string]string{MetaModified: "1700000000"}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := Stage(files, meta); err != nil {
			b.Fatal(err)
		}
	}
}
