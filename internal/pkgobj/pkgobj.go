// Package pkgobj implements the package DSO: the semantics subobject
// holding one free-software package — "one or more files" with a
// unique name, possibly very large (paper §2) — plus the typed stub
// that plays the control subobject for it.
//
// The semantics subobject is written with no knowledge of distribution
// or replication, exactly as §3.3 prescribes: it sees only marshalled
// invocations and marshalled state. Any replication protocol from
// internal/repl can host it, which is what lets moderators assign
// packages differentiated replication scenarios.
//
// File contents live in a content-addressed chunk store
// (internal/store): a file is a manifest of SHA-256 chunk refs plus a
// whole-content digest, so package state is small no matter how large
// the content, identical content is stored once, state transfer ships
// only the chunks a receiver is missing, and integrity is checkable
// end to end (paper §6.1: "attackers should not be able to violate
// the integrity of the software being distributed"). There is no file
// size ceiling: reads and bulk transfers are chunked, so nothing ever
// materializes content-sized buffers on the wire.
package pkgobj

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"sort"

	"gdn/internal/core"
	"gdn/internal/store"
	"gdn/internal/wire"
)

// Impl is the implementation identifier under which the package
// semantics is registered in implementation repositories.
const Impl = "package/1"

// DefaultChunkSize is the storage chunk size; GetFileChunk reads are
// independent of it.
const DefaultChunkSize = 256 << 10

// Method names of the package DSO interface.
const (
	MethodAddFile      = "addFile"
	MethodAddManifest  = "addManifest"
	MethodAppendFile   = "appendFile"
	MethodRemoveFile   = "removeFile"
	MethodListContents = "listContents"
	MethodGetFile      = "getFileContents"
	MethodGetChunk     = "getFileChunk"
	MethodStat         = "stat"
	MethodSetMeta      = "setMeta"
	MethodGetMeta      = "getMeta"
)

// MetaModified is the metadata key conventionally holding the time of
// the package's last moderator change, as decimal Unix seconds. The
// moderator tool stamps it on create and update; replicated with the
// rest of the state, every replica agrees on it, and the GDN HTTPD
// serves it as Last-Modified.
const MetaModified = "gdn.modified"

// MaxInlineRead bounds MethodGetFile/MethodGetFileAt responses: a
// whole-content read materializes the file in one protocol message,
// which must stay under the wire field limit. Storage itself has no
// ceiling — larger files are read chunked or streamed.
const MaxInlineRead = 8 << 20

// Errors reported by the package semantics.
var (
	ErrNoFile  = errors.New("pkgobj: no such file in package")
	ErrBadPath = errors.New("pkgobj: malformed file path")
	// ErrInlineRead rejects a whole-content read of a file too large
	// for one protocol message; callers stream or read chunked.
	ErrInlineRead = errors.New("pkgobj: file exceeds whole-content read bound")
)

// FileInfo describes one file in a package.
type FileInfo struct {
	// Path is the file's name within the package, e.g. "src/gcc.tar".
	Path string
	// Size is the content length in bytes.
	Size int64
	// Digest is the SHA-256 of the content.
	Digest [sha256.Size]byte
}

func (fi FileInfo) encode(w *wire.Writer) {
	w.Str(fi.Path)
	w.Int64(fi.Size)
	w.Bytes32(fi.Digest[:])
}

func decodeFileInfo(r *wire.Reader) FileInfo {
	var fi FileInfo
	fi.Path = r.Str()
	fi.Size = r.Int64()
	copy(fi.Digest[:], r.Bytes32())
	return fi
}

// file is the stored representation: a chunk manifest plus the
// whole-content digest. h carries the running digest state so appends
// are O(appended bytes); it is rebuilt lazily after a state install.
type file struct {
	size   int64
	digest [sha256.Size]byte
	chunks []store.Chunk
	h      hash.Hash
}

func (f *file) info(path string) FileInfo {
	return FileInfo{Path: path, Size: f.size, Digest: f.digest}
}

func (f *file) refs() []store.Ref {
	out := make([]store.Ref, len(f.chunks))
	for i, c := range f.chunks {
		out[i] = c.Ref
	}
	return out
}

// clone copies the manifest (not the hash state); tagged versions
// snapshot files with it.
func (f *file) clone() *file {
	return &file{
		size:   f.size,
		digest: f.digest,
		chunks: append([]store.Chunk(nil), f.chunks...),
	}
}

// manifest views the file as a core.Manifest (no retention).
func (f *file) manifest() core.Manifest {
	return core.Manifest{Chunks: f.chunks, Size: f.size, Digest: f.digest}
}

// read copies [off, off+n) of the content out of the store; short at
// EOF.
func (f *file) read(st *store.Store, off, n int64) ([]byte, error) {
	if off >= f.size || n <= 0 {
		return nil, nil
	}
	if off+n > f.size {
		n = f.size - off
	}
	out := make([]byte, 0, n)
	err := f.manifest().WalkRange(st, off, n, func(p []byte) error {
		out = append(out, p...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rebuildHash reconstructs the running digest state from stored
// content; needed before the first append after a state install.
func (f *file) rebuildHash(st *store.Store) error {
	h := sha256.New()
	for _, c := range f.chunks {
		data, err := st.Get(c.Ref)
		if err != nil {
			return err
		}
		h.Write(data)
	}
	f.h = h
	return nil
}

// version is one immutable tagged snapshot: path → manifest.
type version struct {
	files map[string]*file
}

// Package is the package DSO semantics subobject. The zero value is
// not usable; call New. It is not safe for concurrent use — the
// framework serializes access (core.NewLocalExec).
type Package struct {
	meta      map[string]string
	files     map[string]*file
	versions  map[string]version
	chunkSize int
	st        *store.Store
}

var (
	_ core.Semantics    = (*Package)(nil)
	_ core.ChunkStored  = (*Package)(nil)
	_ core.BulkSource   = (*Package)(nil)
	_ core.ChunkedState = (*Package)(nil)
)

// New returns an empty package backed by its own private memory
// store. Hosting infrastructure re-homes it onto a shared store with
// UseStore before seeding state.
func New() *Package {
	return &Package{
		meta:      make(map[string]string),
		files:     make(map[string]*file),
		chunkSize: DefaultChunkSize,
		st:        store.Mem(),
	}
}

// Register installs the package implementation in a registry.
func Register(reg *core.Registry) {
	reg.RegisterSemantics(Impl, func() core.Semantics { return New() })
}

// Store returns the chunk store backing this package's content.
func (p *Package) Store() *store.Store { return p.st }

// UseStore implements core.ChunkStored: it re-homes the package onto
// st, migrating any content already stored (normally none — the
// runtime injects stores into freshly constructed semantics).
func (p *Package) UseStore(st *store.Store) {
	if st == nil || st == p.st {
		return
	}
	migrate := func(f *file) {
		for _, c := range f.chunks {
			if data, err := p.st.Get(c.Ref); err == nil {
				st.PutPinned(data) //nolint:errcheck
			}
		}
	}
	for _, f := range p.files {
		migrate(f)
		f.h = nil
	}
	for _, v := range p.versions {
		for _, f := range v.files {
			migrate(f)
		}
	}
	p.releaseAll()
	p.st = st
}

// releaseAll drops every pin this package holds in its store.
func (p *Package) releaseAll() {
	for _, f := range p.files {
		p.st.Release(f.refs())
	}
	for _, v := range p.versions {
		for _, f := range v.files {
			p.st.Release(f.refs())
		}
	}
}

// ReleaseStored drops the package's store pins; the local
// representative calls it on Close so shared stores reclaim (or age
// out) content of replicas that no longer exist.
func (p *Package) ReleaseStored() {
	p.releaseAll()
	p.files = make(map[string]*file)
	p.versions = nil
}

// FileManifest implements core.BulkSource. The returned manifest's
// chunks are retained on the caller's behalf; the caller must Release
// them when its read completes.
func (p *Package) FileManifest(path string) (core.Manifest, error) {
	f, ok := p.files[path]
	if !ok {
		return core.Manifest{}, fmt.Errorf("%w: %q", ErrNoFile, path)
	}
	m := core.Manifest{
		Chunks: append([]store.Chunk(nil), f.chunks...),
		Size:   f.size,
		Digest: f.digest,
	}
	if err := p.st.Retain(m.Refs()); err != nil {
		return core.Manifest{}, err
	}
	return m, nil
}

// validPath accepts slash-separated relative paths without empty or
// dot-only components — server-side sanitation so a hostile path
// cannot confuse consumers that map package files onto file systems or
// URLs (paper §6.1 hardening).
func validPath(p string) bool {
	if p == "" || len(p) > 4096 || p[0] == '/' {
		return false
	}
	start := 0
	for i := 0; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			seg := p[start:i]
			if seg == "" || seg == "." || seg == ".." {
				return false
			}
			start = i + 1
		}
	}
	return true
}

// Invoke implements core.Semantics by dispatching marshalled methods.
func (p *Package) Invoke(inv core.Invocation) ([]byte, error) {
	r := wire.NewReader(inv.Args)
	if handled, out, err := p.invokeVersion(inv, r); handled {
		return out, err
	}
	switch inv.Method {
	case MethodAddFile:
		path := r.Str()
		data := r.Bytes32()
		if err := r.Done(); err != nil {
			return nil, err
		}
		return nil, p.addFile(path, data, false)
	case MethodAddManifest:
		path, f, err := decodeManifest(r)
		if err != nil {
			return nil, err
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		return nil, p.addManifest(path, f)
	case MethodAppendFile:
		path := r.Str()
		data := r.Bytes32()
		if err := r.Done(); err != nil {
			return nil, err
		}
		return nil, p.addFile(path, data, true)
	case MethodRemoveFile:
		path := r.Str()
		if err := r.Done(); err != nil {
			return nil, err
		}
		f, ok := p.files[path]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoFile, path)
		}
		p.st.Release(f.refs())
		delete(p.files, path)
		return nil, nil
	case MethodListContents:
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.listContents(), nil
	case MethodGetFile:
		path := r.Str()
		if err := r.Done(); err != nil {
			return nil, err
		}
		f, ok := p.files[path]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoFile, path)
		}
		if f.size > MaxInlineRead {
			return nil, fmt.Errorf("%w: %q is %d bytes", ErrInlineRead, path, f.size)
		}
		return f.read(p.st, 0, f.size)
	case MethodGetChunk:
		path := r.Str()
		off := r.Int64()
		n := r.Int64()
		if err := r.Done(); err != nil {
			return nil, err
		}
		f, ok := p.files[path]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoFile, path)
		}
		return f.read(p.st, off, n)
	case MethodStat:
		path := r.Str()
		if err := r.Done(); err != nil {
			return nil, err
		}
		f, ok := p.files[path]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoFile, path)
		}
		w := wire.NewWriter(64)
		f.info(path).encode(w)
		return w.Bytes(), nil
	case MethodSetMeta:
		key := r.Str()
		val := r.Str()
		if err := r.Done(); err != nil {
			return nil, err
		}
		if val == "" {
			delete(p.meta, key)
		} else {
			p.meta[key] = val
		}
		return nil, nil
	case MethodGetMeta:
		key := r.Str()
		if err := r.Done(); err != nil {
			return nil, err
		}
		if key != "" {
			return []byte(p.meta[key]), nil
		}
		return p.encodeMeta(), nil
	default:
		return nil, fmt.Errorf("pkgobj: unknown method %q", inv.Method)
	}
}

// chunkInto appends data to f's manifest in store-pinned chunks. All
// chunks are exactly chunkSize long except a final partial one, so
// chunk boundaries — and therefore manifests and marshalled state —
// are a deterministic function of content alone, not of the
// AddFile/AppendFile history that produced it. On error it releases
// what it pinned and reports how far it got.
func chunkInto(f *file, st *store.Store, chunkSize int, data []byte) error {
	var added []store.Ref
	for len(data) > 0 {
		n := chunkSize
		if n > len(data) {
			n = len(data)
		}
		ref, err := st.PutPinned(data[:n])
		if err != nil {
			st.Release(added)
			return err
		}
		added = append(added, ref)
		f.chunks = append(f.chunks, store.Chunk{Ref: ref, Size: int64(n)})
		f.size += int64(n)
		data = data[n:]
	}
	return nil
}

// addManifest installs a file from its manifest alone — the landing
// half of a negotiated bulk write, where the chunk bodies arrived
// separately (OpChunkPut) or were already present. Every referenced
// chunk must be resident or the write fails without touching state.
// Boundaries must be canonical (chunkInto's invariant: every chunk
// exactly chunkSize except the tail), so a file written by manifest
// marshals identically to the same content written by AddFile. Like
// state installs, the whole-content digest is the authorized writer's
// claim; readers verify it end to end.
func (p *Package) addManifest(path string, f *file) error {
	if !validPath(path) {
		return fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	for i, c := range f.chunks {
		if c.Size > int64(p.chunkSize) || (c.Size != int64(p.chunkSize) && i != len(f.chunks)-1) {
			return fmt.Errorf("pkgobj: manifest for %q has non-canonical chunk boundaries (chunk %d is %d bytes, store chunks at %d)",
				path, i, c.Size, p.chunkSize)
		}
	}
	if err := p.st.Retain(f.refs()); err != nil {
		return fmt.Errorf("pkgobj: install manifest %q: %w", path, err)
	}
	if old := p.files[path]; old != nil {
		p.st.Release(old.refs())
	}
	p.files[path] = f
	return nil
}

// addFile stores data, chunked, into the content store, replacing or
// extending the manifest at path. An append re-chunks at most the old
// partial tail chunk, so appending to a huge file costs O(appended
// bytes) in hashing and storage, never O(file).
func (p *Package) addFile(path string, data []byte, appendTo bool) error {
	if !validPath(path) {
		return fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	old := p.files[path]

	if old == nil || !appendTo {
		f := &file{h: sha256.New()}
		f.h.Write(data)
		if err := chunkInto(f, p.st, p.chunkSize, data); err != nil {
			return err
		}
		f.h.Sum(f.digest[:0])
		if old != nil {
			p.st.Release(old.refs())
		}
		p.files[path] = f
		return nil
	}

	f := old
	if f.h == nil {
		// First append after a state install: resume the digest from
		// stored content.
		if err := f.rebuildHash(p.st); err != nil {
			return err
		}
	}
	// Keep chunk boundaries canonical: fold a partial tail chunk into
	// the appended data and re-chunk from its start.
	var dropTail []store.Ref
	savedChunks, savedSize, savedDigest := f.chunks, f.size, f.digest
	f.h.Write(data)
	if n := len(f.chunks); n > 0 && f.chunks[n-1].Size < int64(p.chunkSize) {
		tail := f.chunks[n-1]
		tailData, err := p.st.Get(tail.Ref)
		if err != nil {
			f.h = nil // the running digest already consumed data; rebuild lazily
			return err
		}
		merged := make([]byte, 0, int64(len(data))+tail.Size)
		merged = append(merged, tailData...)
		merged = append(merged, data...)
		data = merged
		dropTail = []store.Ref{tail.Ref}
		f.chunks = f.chunks[: n-1 : n-1]
		f.size -= tail.Size
	}
	if err := chunkInto(f, p.st, p.chunkSize, data); err != nil {
		f.chunks, f.size, f.digest = savedChunks, savedSize, savedDigest
		f.h = nil
		return err
	}
	f.h.Sum(f.digest[:0])
	p.st.Release(dropTail)
	return nil
}

func (p *Package) listContents() []byte {
	paths := make([]string, 0, len(p.files))
	for path := range p.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	w := wire.NewWriter(64 * len(paths))
	w.Count(len(paths))
	for _, path := range paths {
		p.files[path].info(path).encode(w)
	}
	return w.Bytes()
}

func (p *Package) encodeMeta() []byte {
	keys := make([]string, 0, len(p.meta))
	for k := range p.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w := wire.NewWriter(64)
	w.Count(len(keys))
	for _, k := range keys {
		w.Str(k)
		w.Str(p.meta[k])
	}
	return w.Bytes()
}

// encodeManifest appends one file manifest to a state encoding.
func encodeManifest(w *wire.Writer, path string, f *file) {
	w.Str(path)
	w.Int64(f.size)
	w.Hash(f.digest)
	w.Count(len(f.chunks))
	for _, c := range f.chunks {
		w.Hash(c.Ref)
		w.Int64(c.Size)
	}
}

// Smallest encodings of the counted elements of a state: a chunk entry
// (ref, size), a file manifest (empty path, size, digest, chunk count),
// a meta entry (two empty strings) and a version (empty label, file
// count).
const (
	chunkEncSize    = 32 + 8
	manifestEncSize = 2 + 8 + 32 + 4
	metaEncSize     = 2 + 2
	versionEncSize  = 2 + 4
)

// fit caps a decoded element count at how many elements of at least
// minSize bytes the rest of r can hold: the count is untrusted, so it
// may size a preallocation only as far as the input backs it.
func fit(r *wire.Reader, n, minSize int) int { return min(n, r.Remaining()/minSize) }

// decodeManifest reads one file manifest. Sizes are untrusted input:
// a chunk size must be positive (a negative or zero length would
// corrupt the offset arithmetic of every later read) and the sizes
// must sum to the claimed file size.
func decodeManifest(r *wire.Reader) (path string, f *file, err error) {
	path = r.Str()
	f = &file{size: r.Int64(), digest: r.Hash()}
	n := r.Count()
	if err := r.Err(); err != nil {
		return "", nil, err
	}
	if f.size < 0 {
		return "", nil, fmt.Errorf("pkgobj: manifest for %q claims negative size", path)
	}
	f.chunks = make([]store.Chunk, 0, fit(r, n, chunkEncSize))
	var total int64
	for i := 0; i < n; i++ {
		c := store.Chunk{Ref: r.Hash(), Size: r.Int64()}
		if err := r.Err(); err != nil {
			return "", nil, err
		}
		if c.Size <= 0 {
			return "", nil, fmt.Errorf("pkgobj: manifest for %q has a %d-byte chunk", path, c.Size)
		}
		f.chunks = append(f.chunks, c)
		total += c.Size
	}
	if total != f.size {
		return "", nil, fmt.Errorf("pkgobj: manifest for %q sums to %d bytes, claims %d", path, total, f.size)
	}
	return path, f, nil
}

// MarshalState implements core.Semantics. The encoding is canonical
// (sorted paths, manifests instead of content) and small regardless
// of content size: chunk bytes travel separately, fetched by ref by
// receivers that lack them.
func (p *Package) MarshalState() ([]byte, error) {
	w := wire.NewWriter(1024)
	w.Uint32(uint32(p.chunkSize))
	w.Bytes32(p.encodeMeta())

	paths := make([]string, 0, len(p.files))
	for path := range p.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	w.Count(len(paths))
	for _, path := range paths {
		encodeManifest(w, path, p.files[path])
	}
	p.encodeVersions(w)
	if err := w.Err(); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// UnmarshalState implements core.Semantics. Every chunk the manifests
// reference must already be present in the package's store — the
// replication layer fetches missing chunks before installing state —
// or the install fails without touching current state.
func (p *Package) UnmarshalState(b []byte) error {
	r := wire.NewReader(b)
	chunkSize := int(r.Uint32())
	metaBytes := r.Bytes32()
	count := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	if chunkSize <= 0 {
		return fmt.Errorf("pkgobj: bad chunk size %d in state", chunkSize)
	}

	mr := wire.NewReader(metaBytes)
	nMeta := mr.Count()
	meta := make(map[string]string, fit(mr, nMeta, metaEncSize))
	for i := 0; i < nMeta; i++ {
		k := mr.Str()
		meta[k] = mr.Str()
	}
	if err := mr.Done(); err != nil {
		return err
	}

	next := &Package{meta: meta, files: make(map[string]*file, fit(r, count, manifestEncSize)), chunkSize: chunkSize, st: p.st}
	for i := 0; i < count; i++ {
		path, f, err := decodeManifest(r)
		if err != nil {
			return err
		}
		if !validPath(path) {
			return fmt.Errorf("%w: %q", ErrBadPath, path)
		}
		next.files[path] = f
	}
	versions, err := decodeVersions(r)
	if err != nil {
		return err
	}
	next.versions = versions
	if err := r.Done(); err != nil {
		return err
	}

	// Pin the incoming state's chunks before dropping the old pins, so
	// chunks shared between old and new state never hit zero.
	var pinned [][]store.Ref
	pin := func(f *file) error {
		refs := f.refs()
		if err := next.st.Retain(refs); err != nil {
			return err
		}
		pinned = append(pinned, refs)
		return nil
	}
	fail := func(err error) error {
		for _, refs := range pinned {
			next.st.Release(refs)
		}
		return err
	}
	for _, f := range next.files {
		if err := pin(f); err != nil {
			return fail(fmt.Errorf("pkgobj: install state: %w", err))
		}
	}
	for _, v := range next.versions {
		for _, f := range v.files {
			if err := pin(f); err != nil {
				return fail(fmt.Errorf("pkgobj: install state: %w", err))
			}
		}
	}
	p.releaseAll()
	*p = *next
	return nil
}

// StateRefs implements core.ChunkedState: the chunk refs a marshalled
// state references, without installing it. Receivers diff this
// against their store to fetch only missing chunks (delta sync).
func (p *Package) StateRefs(state []byte) ([]store.Ref, error) {
	return StateRefs(state)
}

// StateRefs parses the chunk refs out of a marshalled package state.
func StateRefs(state []byte) ([]store.Ref, error) {
	r := wire.NewReader(state)
	_ = r.Uint32()  // chunk size
	_ = r.Bytes32() // meta
	var refs []store.Ref
	readFiles := func() error {
		count := r.Count()
		if err := r.Err(); err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			_, f, err := decodeManifest(r)
			if err != nil {
				return err
			}
			refs = append(refs, f.refs()...)
		}
		return nil
	}
	if err := readFiles(); err != nil {
		return nil, err
	}
	nv := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < nv; i++ {
		_ = r.Str() // label
		if err := readFiles(); err != nil {
			return nil, err
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return refs, nil
}

// Files returns the number of files; tests and checkpoint logs use it.
func (p *Package) Files() int { return len(p.files) }

// TotalSize sums all file sizes.
func (p *Package) TotalSize() int64 {
	var total int64
	for _, f := range p.files {
		total += f.size
	}
	return total
}
