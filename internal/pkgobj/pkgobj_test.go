package pkgobj

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gdn/internal/core"
	"gdn/internal/ids"
	"gdn/internal/obs"
	"gdn/internal/store"
)

// newLocalStub wraps a package in a local, network-free representative
// so the whole stub → control → invocation path is exercised.
func newLocalStub(t *testing.T, p *Package) *Stub {
	t.Helper()
	lr := core.NewLocalLR(ids.Derive("pkgobj-test"), p)
	t.Cleanup(func() { lr.Close() })
	return NewStub(lr)
}

func TestAddListGetRemove(t *testing.T) {
	p := New()
	s := newLocalStub(t, p)

	if err := s.AddFile("README", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFile("src/main.c", bytes.Repeat([]byte("x"), 1000)); err != nil {
		t.Fatal(err)
	}

	infos, err := s.ListContents()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Path != "README" || infos[1].Path != "src/main.c" {
		t.Fatalf("infos = %+v", infos)
	}
	if infos[1].Size != 1000 {
		t.Fatalf("size = %d", infos[1].Size)
	}
	want := sha256.Sum256([]byte("hello"))
	if infos[0].Digest != want {
		t.Fatal("digest mismatch")
	}

	data, err := s.GetFileContents("README")
	if err != nil || string(data) != "hello" {
		t.Fatalf("content = %q, %v", data, err)
	}

	if err := s.RemoveFile("README"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetFileContents("README"); err == nil {
		t.Fatal("removed file must not be readable")
	}
	if err := s.RemoveFile("README"); err == nil {
		t.Fatal("removing a missing file must fail")
	}
}

func TestChunkedReads(t *testing.T) {
	p := New()
	p.chunkSize = 16 // tiny chunks exercise boundary logic
	s := newLocalStub(t, p)

	content := make([]byte, 1000)
	rand.New(rand.NewSource(5)).Read(content)
	if err := s.AddFile("blob", content); err != nil {
		t.Fatal(err)
	}

	// Reassemble with odd-sized reads straddling chunk boundaries.
	var got []byte
	for off := int64(0); ; {
		chunk, err := s.GetFileChunk("blob", off, 37)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) == 0 {
			break
		}
		got = append(got, chunk...)
		off += int64(len(chunk))
	}
	if !bytes.Equal(got, content) {
		t.Fatal("chunked reassembly differs from original")
	}

	// Reads past EOF are empty, not errors.
	chunk, err := s.GetFileChunk("blob", 5000, 10)
	if err != nil || len(chunk) != 0 {
		t.Fatalf("past-EOF read: %d bytes, %v", len(chunk), err)
	}
	// Partial read at the tail.
	chunk, err = s.GetFileChunk("blob", 990, 100)
	if err != nil || len(chunk) != 10 {
		t.Fatalf("tail read: %d bytes, %v", len(chunk), err)
	}
}

func TestLocalStreamReads(t *testing.T) {
	// A local representative streams out of its own store like any
	// replica: ranges are cut from 64-byte chunks with no chunk RPCs.
	p := New()
	p.chunkSize = 64
	s := newLocalStub(t, p)
	content := make([]byte, 1000) // 15 full chunks and a 40-byte tail
	rand.New(rand.NewSource(6)).Read(content)
	if err := s.AddFile("blob", content); err != nil {
		t.Fatal(err)
	}
	size := int64(len(content))

	for _, c := range []struct {
		name   string
		off, n int64
		want   []byte
	}{
		{"whole", 0, -1, content},
		{"across-boundary", 60, 10, content[60:70]},
		{"past-eof", 980, 100, content[980:]},
		{"at-eof", size, 10, nil},
	} {
		var buf bytes.Buffer
		n, err := s.ReadFileToT(obs.SpanContext{}, &buf, "blob", c.off, c.n)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n != int64(len(c.want)) || !bytes.Equal(buf.Bytes(), c.want) {
			t.Fatalf("%s: read %d bytes, want %d", c.name, n, len(c.want))
		}
	}

	var buf bytes.Buffer
	n, err := s.ReadFileTo(&buf, "blob")
	if err != nil || n != size || !bytes.Equal(buf.Bytes(), content) {
		t.Fatalf("ReadFileTo = %d bytes, %v; want %d", n, err, size)
	}
	if _, err := s.ReadFileTo(io.Discard, "missing"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("missing file: err = %v, want ErrNoFile", err)
	}
}

func TestAppendFile(t *testing.T) {
	p := New()
	p.chunkSize = 8
	s := newLocalStub(t, p)

	var want []byte
	for i := 0; i < 10; i++ {
		part := bytes.Repeat([]byte{byte('a' + i)}, 5)
		if err := s.AppendFile("log", part); err != nil {
			t.Fatal(err)
		}
		want = append(want, part...)
	}
	got, err := s.GetFileContents("log")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("append result mismatch: %v", err)
	}
	fi, err := s.Stat("log")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Digest != sha256.Sum256(want) {
		t.Fatal("append must rehash")
	}

	// AddFile after appends replaces, not extends.
	if err := s.AddFile("log", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.GetFileContents("log")
	if string(got) != "fresh" {
		t.Fatalf("AddFile must replace: %q", got)
	}
}

func TestPathValidation(t *testing.T) {
	s := newLocalStub(t, New())
	bad := []string{"", "/abs", "a//b", "../escape", "a/./b", "a/../b"}
	for _, path := range bad {
		if err := s.AddFile(path, []byte("x")); !errors.Is(err, ErrBadPath) {
			t.Errorf("AddFile(%q) = %v, want ErrBadPath", path, err)
		}
	}
	good := []string{"a", "a/b/c", "with-dash_underscore.txt", "...dots"}
	for _, path := range good {
		if err := s.AddFile(path, []byte("x")); err != nil {
			t.Errorf("AddFile(%q) = %v", path, err)
		}
	}
}

func TestNoFileSizeCeiling(t *testing.T) {
	// The seed capped files at 15 MiB because content had to fit in
	// protocol messages; manifests removed the cap. Exercise the same
	// shape scaled down: a file of many thousands of chunks, written
	// in slices, reads back intact.
	p := New()
	p.chunkSize = 64
	s := newLocalStub(t, p)
	slice := bytes.Repeat([]byte("0123456789abcdef"), 64) // 1 KiB
	const slices = 300
	for i := 0; i < slices; i++ {
		slice[0] = byte(i)
		if err := s.AppendFile("big", slice); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := s.Stat("big")
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(slice) * slices); fi.Size != want {
		t.Fatalf("size = %d, want %d", fi.Size, want)
	}
	if err := s.VerifyFile("big"); err != nil {
		t.Fatal(err)
	}
}

func TestWholeContentReadsAboveInlineBound(t *testing.T) {
	// GetFileContents and GetFileAtVersion must keep working past the
	// one-message inline bound by degrading to chunked assembly.
	p := New()
	s := newLocalStub(t, p)
	content := make([]byte, MaxInlineRead+12345)
	rand.New(rand.NewSource(11)).Read(content)
	if err := s.UploadFile("huge", content); err != nil {
		t.Fatal(err)
	}
	if err := s.TagVersion("v1"); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetFileContents("huge")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("inline-fallback read failed: %v", err)
	}
	got, err = s.GetFileAtVersion("v1", "huge")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("versioned inline-fallback read failed: %v", err)
	}
}

func TestDedupAcrossFiles(t *testing.T) {
	// Identical content stored under two paths costs one set of chunks.
	p := New()
	s := newLocalStub(t, p)
	content := bytes.Repeat([]byte{7}, 3*DefaultChunkSize)
	if err := s.AddFile("a", content); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFile("b", content); err != nil {
		t.Fatal(err)
	}
	// All chunks are identical (repeating content) and shared between
	// files, so the store holds exactly one chunk.
	if st := p.Store().Stats(); st.Chunks != 1 {
		t.Fatalf("store holds %d chunks, want 1 (content-addressed dedup)", st.Chunks)
	}
}

func TestMetadata(t *testing.T) {
	s := newLocalStub(t, New())
	if err := s.SetMeta("description", "GNU C compiler"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMeta("version", "2.95"); err != nil {
		t.Fatal(err)
	}
	if v, err := s.GetMeta("version"); err != nil || v != "2.95" {
		t.Fatalf("GetMeta = %q, %v", v, err)
	}
	meta, err := s.Meta()
	if err != nil || len(meta) != 2 {
		t.Fatalf("Meta = %v, %v", meta, err)
	}
	// Empty value deletes.
	if err := s.SetMeta("version", ""); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.GetMeta("version"); v != "" {
		t.Fatalf("deleted key still set: %q", v)
	}
}

func TestVerifyFileDetectsCorruption(t *testing.T) {
	p := New()
	s := newLocalStub(t, p)
	if err := s.AddFile("pkg.tar", []byte("legitimate content")); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyFile("pkg.tar"); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored chunk bytes behind the digest's back (the
	// memory store hands out its internal slice).
	data, err := p.Store().Get(p.files["pkg.tar"].chunks[0].Ref)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xFF
	if err := s.VerifyFile("pkg.tar"); err == nil {
		t.Fatal("corruption must be detected")
	}
}

func TestStateRoundTripCanonical(t *testing.T) {
	// Two packages with identical logical content but different
	// operation histories must marshal to identical bytes — the
	// property replica convergence checks rely on.
	a := New()
	sa := newLocalStub(t, a)
	if err := sa.AddFile("f1", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := sa.AddFile("f2", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if err := sa.SetMeta("m", "1"); err != nil {
		t.Fatal(err)
	}

	b := New()
	sb := newLocalStub(t, b)
	if err := sb.SetMeta("m", "1"); err != nil {
		t.Fatal(err)
	}
	if err := sb.AddFile("f2", []byte("temp")); err != nil {
		t.Fatal(err)
	}
	if err := sb.AppendFile("f1", []byte("al")); err != nil {
		t.Fatal(err)
	}
	if err := sb.AppendFile("f1", []byte("pha")); err != nil {
		t.Fatal(err)
	}
	if err := sb.AddFile("f2", []byte("beta")); err != nil {
		t.Fatal(err)
	}

	stA, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	stB, err := b.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stA, stB) {
		t.Fatal("canonical state encoding differs for identical content")
	}

	// Round trip restores everything. State is manifests; the chunks
	// travel out of band, so the receiver shares (or pre-fills) a
	// store — here it shares a's.
	c := New()
	c.UseStore(a.Store())
	if err := c.UnmarshalState(stA); err != nil {
		t.Fatal(err)
	}
	sc := newLocalStub(t, c)
	data, err := sc.GetFileContents("f1")
	if err != nil || string(data) != "alpha" {
		t.Fatalf("restored f1 = %q, %v", data, err)
	}
	if v, _ := sc.GetMeta("m"); v != "1" {
		t.Fatal("metadata lost in round trip")
	}
}

func TestStateQuickProperty(t *testing.T) {
	// Property: marshal∘unmarshal is the identity on (path, content)
	// maps.
	f := func(seed int64, nFiles uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		p := New()
		p.chunkSize = 64
		want := make(map[string]string)
		for i := 0; i < int(nFiles%8)+1; i++ {
			path := fmt.Sprintf("dir%d/file%d", rnd.Intn(3), i)
			content := make([]byte, rnd.Intn(500))
			rnd.Read(content)
			if p.addFile(path, content, false) != nil {
				return false
			}
			want[path] = string(content)
		}
		st, err := p.MarshalState()
		if err != nil {
			return false
		}
		q := New()
		q.UseStore(p.Store())
		if q.UnmarshalState(st) != nil {
			return false
		}
		got := make(map[string]string)
		for path, f := range q.files {
			content, err := f.read(q.st, 0, f.size)
			if err != nil {
				return false
			}
			got[path] = string(content)
		}
		return reflect.DeepEqual(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	p := New()
	for _, b := range [][]byte{nil, {1}, bytes.Repeat([]byte{0xFF}, 40)} {
		if err := p.UnmarshalState(b); err == nil {
			t.Fatalf("UnmarshalState(%v) must fail", b)
		}
	}
}

func TestUnknownMethod(t *testing.T) {
	p := New()
	if _, err := p.Invoke(core.Invocation{Method: "launchMissiles"}); err == nil {
		t.Fatal("unknown method must fail")
	}
}

func TestVersionManagement(t *testing.T) {
	p := New()
	s := newLocalStub(t, p)
	if err := s.AddFile("prog.c", []byte("v1 source")); err != nil {
		t.Fatal(err)
	}
	if err := s.TagVersion("1.0"); err != nil {
		t.Fatal(err)
	}

	// Development continues: the working file changes, the tag does not.
	if err := s.AddFile("prog.c", []byte("v2 source, work in progress")); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetFileAtVersion("1.0", "prog.c")
	if err != nil || string(got) != "v1 source" {
		t.Fatalf("versioned read = %q, %v", got, err)
	}
	head, err := s.GetFileContents("prog.c")
	if err != nil || string(head) != "v2 source, work in progress" {
		t.Fatalf("head read = %q, %v", head, err)
	}

	if err := s.TagVersion("2.0"); err != nil {
		t.Fatal(err)
	}
	labels, err := s.ListVersions()
	if err != nil || len(labels) != 2 || labels[0] != "1.0" || labels[1] != "2.0" {
		t.Fatalf("versions = %v, %v", labels, err)
	}

	// Tags are immutable and unknown labels fail cleanly.
	if err := s.TagVersion("1.0"); err == nil {
		t.Fatal("re-tagging must fail")
	}
	if _, err := s.GetFileAtVersion("9.9", "prog.c"); err == nil {
		t.Fatal("unknown version must fail")
	}
	if _, err := s.GetFileAtVersion("1.0", "missing.c"); err == nil {
		t.Fatal("unknown file at version must fail")
	}

	// Versions survive state marshal/unmarshal (replication, recovery).
	st, err := p.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	q := New()
	q.UseStore(p.Store())
	if err := q.UnmarshalState(st); err != nil {
		t.Fatal(err)
	}
	qs := newLocalStub(t, q)
	got, err = qs.GetFileAtVersion("1.0", "prog.c")
	if err != nil || string(got) != "v1 source" {
		t.Fatalf("versioned read after round trip = %q, %v", got, err)
	}

	// Dropping a version frees its label.
	if err := qs.DropVersion("1.0"); err != nil {
		t.Fatal(err)
	}
	if _, err := qs.GetFileAtVersion("1.0", "prog.c"); err == nil {
		t.Fatal("dropped version must vanish")
	}
	if err := qs.DropVersion("1.0"); err == nil {
		t.Fatal("double drop must fail")
	}
}

func TestVersionsReplicateThroughState(t *testing.T) {
	// A tagged version written at one representative must appear at a
	// replica initialized from its state — versions are ordinary state.
	a := New()
	sa := newLocalStub(t, a)
	if err := sa.AddFile("f", []byte("release")); err != nil {
		t.Fatal(err)
	}
	if err := sa.TagVersion("rel-1"); err != nil {
		t.Fatal(err)
	}
	st, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	b := New()
	b.UseStore(a.Store())
	if err := b.UnmarshalState(st); err != nil {
		t.Fatal(err)
	}
	stB, err := b.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st, stB) {
		t.Fatal("state with versions must re-marshal identically")
	}
}

// TestStoreOnFirstLocalUse: a new package has no store, and a proxy's
// life — constructed, closed — never builds one. UseStore homes it
// without a private store in between; otherwise the first local write
// builds one.
func TestStoreOnFirstLocalUse(t *testing.T) {
	p := New()
	p.ReleaseStored()
	if p.st != nil {
		t.Fatal("a package that stored nothing built a store")
	}

	shared := store.Mem()
	p.UseStore(shared)
	if p.Store() != shared {
		t.Fatal("UseStore did not home the package on the shared store")
	}

	local := New()
	if err := newLocalStub(t, local).AddFile("a.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if local.st == nil || !local.st.Has(store.RefOf([]byte("hello"))) {
		t.Fatal("a local write must store its content in a private store")
	}
}

// TestVersionItemNames: labels holding '/', '@', ':' and NUL round-trip
// through their item names; no item name is a valid working path, and
// no working path parses as an item name.
func TestVersionItemNames(t *testing.T) {
	labels := []string{"1.0", "a/b", "x@y", "n\x00l", "", "3:c/", "0"}
	paths := []string{"f", "dir/f", "@/x"}
	for _, label := range labels {
		for _, path := range paths {
			name := versionItem(label, path)
			if l, p, ok := splitVersionItem(name); !ok || l != label || p != path {
				t.Fatalf("versionItem(%q, %q) = %q splits into %q, %q, %v", label, path, name, l, p, ok)
			}
			if validPath(name) {
				t.Fatalf("item name %q is a valid working path", name)
			}
			if _, _, ok := splitVersionItem("/0" + name[1:]); ok {
				t.Fatalf("%q with a leading zero in its length parses", name)
			}
		}
	}
	for _, path := range append(paths, "1.0", "3:c/f") {
		if _, _, ok := splitVersionItem(path); ok {
			t.Fatalf("working path %q parses as an item name", path)
		}
	}
	for _, bad := range []string{"/", "/:", "/1:", "/1:a", "/1:ab", "/2:a/", "/x:a/f", "/99999999999999999999:a/f"} {
		if _, _, ok := splitVersionItem(bad); ok {
			t.Fatalf("%q parses as an item name", bad)
		}
	}

	// Resolution: the tagged file and the working file at the same path
	// each resolve under their own name only.
	p := New()
	s := newLocalStub(t, p)
	if err := s.AddFile("f", []byte("tagged")); err != nil {
		t.Fatal(err)
	}
	for _, label := range labels[:4] {
		if err := s.TagVersion(label); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddFile("f", []byte("working")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFile("a/b/f", []byte("lookalike")); err != nil {
		t.Fatal(err)
	}
	for _, label := range labels[:4] {
		got, err := s.GetFileAtVersion(label, "f")
		if err != nil || string(got) != "tagged" {
			t.Fatalf("GetFileAtVersion(%q, f) = %q, %v", label, got, err)
		}
	}
	if got, err := s.GetFileContents("f"); err != nil || string(got) != "working" {
		t.Fatalf("working f = %q, %v", got, err)
	}
	checkItemNames(t, p)
}

// TestTaggedCorruptionFailsDigest: a tagged file whose chunk bytes rot
// behind its digest fails the end-to-end check of the one read path.
func TestTaggedCorruptionFailsDigest(t *testing.T) {
	p := New()
	s := newLocalStub(t, p)
	content := make([]byte, 2*DefaultChunkSize+7)
	rand.New(rand.NewSource(5)).Read(content)
	if err := s.UploadFile("pkg.tar", content); err != nil {
		t.Fatal(err)
	}
	if err := s.TagVersion("1.0"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveFile("pkg.tar"); err != nil {
		t.Fatal(err)
	}
	if got, err := s.GetFileAtVersion("1.0", "pkg.tar"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("tagged read before corruption: %v", err)
	}
	// The memory store hands out its internal slice.
	data, err := p.Store().Get(p.versions["1.0"].files["pkg.tar"].chunks[1].Ref)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xFF
	if _, err := s.GetFileAtVersion("1.0", "pkg.tar"); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("tagged read of a corrupt chunk = %v, want a digest mismatch", err)
	}
}

// checkItemNames asserts that every working and tagged file of p
// resolves through FileManifest under its own name, and that near
// misses of each name resolve to nothing.
func checkItemNames(t *testing.T, p *Package) {
	t.Helper()
	want := make(map[string]*file)
	for path, f := range p.files {
		want[path] = f
	}
	for label, v := range p.versions {
		for path, f := range v.files {
			name := versionItem(label, path)
			if _, dup := want[name]; dup {
				t.Fatalf("two files named %q", name)
			}
			want[name] = f
		}
	}
	for name, f := range want {
		m, err := p.FileManifest(name)
		if err != nil {
			t.Fatalf("FileManifest(%q): %v", name, err)
		}
		p.Store().Release(m.Refs())
		if m.Size != f.size || m.Digest != f.digest || !slices.Equal(m.Chunks, f.chunks) {
			t.Fatalf("FileManifest(%q) resolves another file", name)
		}
		for _, miss := range []string{"/" + name, name + "/", "/0" + name[1:], name[:len(name)-1], "/1:" + name[1:]} {
			if _, named := want[miss]; named {
				continue
			}
			if m, err := p.FileManifest(miss); err == nil {
				p.Store().Release(m.Refs())
				t.Fatalf("FileManifest(%q) resolves, but no file has that name (near %q)", miss, name)
			}
		}
	}
}

// BenchmarkWholeReadCached reads a whole file, again and again, out of
// a local representative over a memory store: the cache-hit read of a
// caching edge. The first read hashes the file against its digest;
// every later one rests on the store's per-chunk checksums, so the
// cost per op is the chunk walk and CRC-32C, not SHA-256.
func BenchmarkWholeReadCached(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			content := make([]byte, size)
			rand.New(rand.NewSource(1)).Read(content)
			lr := core.NewLocalLR(ids.Derive("pkgobj-bench"), New())
			b.Cleanup(func() { lr.Close() })
			s := NewStub(lr)
			if err := s.UploadFile("blob", content); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.ReadFileTo(io.Discard, "blob"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
