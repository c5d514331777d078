package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Ref is a chunk's content address: the SHA-256 of its bytes.
type Ref [sha256.Size]byte

// RefOf returns the content address of data.
func RefOf(data []byte) Ref { return sha256.Sum256(data) }

// String renders the full hex digest.
func (r Ref) String() string { return hex.EncodeToString(r[:]) }

// Short renders an abbreviated digest for logs.
func (r Ref) Short() string { return hex.EncodeToString(r[:6]) }

// Chunk is one manifest entry: a content address plus the chunk's
// length, so manifest holders can do offset arithmetic without
// touching chunk data.
type Chunk struct {
	Ref  Ref
	Size int64
}

// Errors reported by the store.
var (
	// ErrMissing is returned when a referenced chunk is not present.
	ErrMissing = errors.New("store: chunk not present")
	// ErrCorrupt is returned when chunk bytes no longer match their
	// content address (disk) or the checksum taken when they were
	// admitted (memory).
	ErrCorrupt = errors.New("store: chunk bytes do not match their address")
	// ErrNotOnDisk is returned by OpenChunk when a chunk's bytes are not
	// a plain file a transport could splice (memory-backed store).
	ErrNotOnDisk = errors.New("store: chunk bytes not file-backed")
)

// Stats counts store effectiveness for experiments and tests.
type Stats struct {
	// Chunks and Bytes are the current resident totals.
	Chunks int
	Bytes  int64
	// Dedup counts Put calls that found their chunk already present.
	Dedup int64
	// Evictions counts chunks dropped by the capacity policy.
	Evictions int64
	// Quarantined counts chunks the scrubber found corrupt on disk and
	// moved aside (cumulative).
	Quarantined int64
	// Repaired counts quarantined chunks healed by a later Put
	// (cumulative).
	Repaired int64
	// Scrubbed counts bytes of chunk content the scrubber has verified
	// (cumulative).
	Scrubbed int64
}

// entry is the in-memory record of one chunk. data is nil for
// disk-resident chunks; crc is the CRC-32C of data, taken at admission
// right after the SHA-256 that names the bytes, so each read checks
// them at CRC speed. elem is non-nil while the chunk sits on its
// shard's cold (refs == 0) LRU list. gone marks a quarantined chunk:
// the scrubber found its bytes corrupt and moved them aside, but live
// manifests still pin the ref, so the entry stays in the table —
// carrying the reference count across the repair — while behaving as
// absent to every reader until a fresh Put heals it.
type entry struct {
	size int64
	refs int
	data []byte
	crc  uint32
	elem *list.Element
	gone bool
}

// castagnoli is the CRC-32C table behind the memory chunks' read
// check; hash/crc32 runs it on the CPU's CRC32 instruction.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// numShards stripes the index so concurrent readers on the bulk serve
// path do not serialize on one mutex. SHA-256 refs are uniformly
// distributed, so sharding by the first address byte balances for
// free. Must be a power of two.
const numShards = 16

// shard is one stripe of the index: its own mutex, chunk table and
// cold LRU list. Eviction order is per-shard LRU — globally an
// approximation of LRU, exact within a stripe — while the capacity
// bound itself stays exact via the store-wide byte counter.
type shard struct {
	mu     sync.Mutex
	chunks map[Ref]*entry
	cold   *list.List // refs == 0, front = most recently used
	gone   int        // quarantined placeholder entries in chunks
}

// Store is a content-addressed chunk store. The zero value is not
// usable; call Mem or Open. Stores are safe for concurrent use.
type Store struct {
	dir string
	cap int64

	shards [numShards]shard
	bytes  atomic.Int64 // resident content bytes across all shards

	// Cumulative counters, mirrored into the obs registry.
	dedup       atomic.Int64
	evictions   atomic.Int64
	quarantined atomic.Int64
	repaired    atomic.Int64
	scrubbedB   atomic.Int64

	// cursor is the scrubber's resume point: scrubbing walks refs in
	// ascending order and carries on where the previous pass stopped,
	// so a bounded pass still covers the whole store eventually.
	scrubMu  sync.Mutex
	cursor   Ref
	scrubbed bool // cursor is valid (a pass has started)

	scrubStop chan struct{} // non-nil while a background scrubber runs
	scrubDone chan struct{}
}

// shardOf returns the stripe owning ref.
func (s *Store) shardOf(ref Ref) *shard { return &s.shards[ref[0]&(numShards-1)] }

// Option configures a store.
type Option func(*Store)

// WithCapacity switches the store to cache mode: released chunks are
// kept (up to roughly capBytes of total content) and evicted least-
// recently-used first. Retained chunks are never evicted, so a live
// working set larger than the capacity simply overshoots it.
func WithCapacity(capBytes int64) Option {
	return func(s *Store) { s.cap = capBytes }
}

// Mem returns a memory-backed store.
func Mem(opts ...Option) *Store {
	s, _ := Open("", opts...)
	return s
}

// Open returns a store rooted at dir, creating the directory as
// needed and indexing any chunks a previous process left behind
// (recovery). An empty dir selects a memory-backed store.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{dir: dir}
	for i := range s.shards {
		s.shards[i].chunks = make(map[Ref]*entry)
		s.shards[i].cold = list.New()
	}
	for _, o := range opts {
		o(s)
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	if err := s.index(); err != nil {
		return nil, err
	}
	return s, nil
}

// index scans the directory for chunks left by a previous run. They
// enter the table unreferenced; recovery retains the ones its
// manifests name and Sweep reclaims the rest.
func (s *Store) index() error {
	fanouts, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, fo := range fanouts {
		if !fo.IsDir() || len(fo.Name()) != 2 {
			continue
		}
		sub := filepath.Join(s.dir, fo.Name())
		files, err := os.ReadDir(sub)
		if err != nil {
			return err
		}
		for _, f := range files {
			name := f.Name()
			b, err := hex.DecodeString(name)
			if err != nil || len(b) != sha256.Size {
				// Stray temporary or foreign file; a crash mid-write
				// leaves .tmp files here. Remove it.
				os.Remove(filepath.Join(sub, name))
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			var ref Ref
			copy(ref[:], b)
			sh := s.shardOf(ref)
			e := &entry{size: info.Size()}
			e.elem = sh.cold.PushBack(coldRef{ref})
			sh.chunks[ref] = e
			s.bytes.Add(e.size)
		}
	}
	return nil
}

// coldRef is the LRU list payload: the ref of a refs==0 chunk.
type coldRef struct{ ref Ref }

// path returns the on-disk location of one chunk, with a two-hex-digit
// fanout directory so no single directory grows unbounded.
func (s *Store) path(ref Ref) string {
	hexRef := ref.String()
	return filepath.Join(s.dir, hexRef[:2], hexRef)
}

// Put stores data under its content address and returns the address.
// Storing content that is already present is a cheap no-op (the
// content-addressing dedup). The chunk enters unreferenced; callers
// that hold it in a manifest must Retain it.
func (s *Store) Put(data []byte) (Ref, error) {
	return s.put(data, false)
}

// PutPinned stores data with one reference already held, atomically
// with the insert — a pinned chunk can never be the victim of the
// eviction its own arrival triggers, even when the pinned working
// set already exceeds a cache store's capacity.
func (s *Store) PutPinned(data []byte) (Ref, error) {
	return s.put(data, true)
}

// put hashes data once and inserts the chunk under the result.
func (s *Store) put(data []byte, pin bool) (Ref, error) {
	start := time.Now()
	defer mPutSeconds.ObserveSince(start)
	mPutBytes.Observe(int64(len(data)))
	ref := RefOf(data)
	if s.present(ref, pin) {
		return ref, nil
	}
	var mem []byte
	var crc uint32
	if s.dir == "" {
		mem = append([]byte(nil), data...)
		crc = crc32.Checksum(mem, castagnoli)
	} else if err := s.writeChunk(ref, data); err != nil {
		return ref, err
	}
	s.admit(ref, int64(len(data)), mem, crc, pin)
	return ref, nil
}

// present reports whether ref is already resident (and not
// quarantined), accounting the dedup and taking the pin when it is.
func (s *Store) present(ref Ref, pin bool) bool {
	sh := s.shardOf(ref)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.chunks[ref]
	if !ok || e.gone {
		return false
	}
	s.dedupLocked(sh, ref, e, pin)
	return true
}

// admit indexes a chunk of size bytes: durable on disk, or held in
// mem, the store's own copy with its CRC-32C crc, for memory stores.
func (s *Store) admit(ref Ref, size int64, mem []byte, crc uint32, pin bool) {
	sh := s.shardOf(ref)
	sh.mu.Lock()
	if e, ok := sh.chunks[ref]; ok {
		if e.gone {
			// Healing a quarantined chunk: the fresh (verified) bytes are
			// on disk again. The entry kept the reference count of every
			// manifest that still names the ref, so pins survive the
			// corruption-and-repair round trip.
			e.gone = false
			sh.gone--
			e.size = size
			e.data, e.crc = mem, crc
			s.bytes.Add(e.size)
			s.repaired.Add(1)
			mRepaired.Inc()
			if pin {
				e.refs++
			} else if e.refs == 0 && e.elem == nil {
				e.elem = sh.cold.PushFront(coldRef{ref})
			}
			sh.mu.Unlock()
			s.evict()
			return
		}
		// Raced with another Put of the same content.
		s.dedupLocked(sh, ref, e, pin)
		sh.mu.Unlock()
		return
	}
	e := &entry{size: size, data: mem, crc: crc}
	if pin {
		e.refs = 1
	} else {
		e.elem = sh.cold.PushFront(coldRef{ref})
	}
	sh.chunks[ref] = e
	s.bytes.Add(e.size)
	sh.mu.Unlock()
	s.evict()
}

// dedupLocked accounts a Put that found its chunk already present,
// taking the pin when asked. Caller holds sh.mu.
func (s *Store) dedupLocked(sh *shard, ref Ref, e *entry, pin bool) {
	s.dedup.Add(1)
	mDedup.Inc()
	if pin {
		if e.refs == 0 && e.elem != nil {
			sh.cold.Remove(e.elem)
			e.elem = nil
		}
		e.refs++
		return
	}
	sh.touchLocked(e)
	_ = ref
}

// writeChunk persists one chunk durably. Concurrent writers of the
// same content race benignly — the rename is atomic and the bytes
// identical.
func (s *Store) writeChunk(ref Ref, data []byte) error {
	return WriteFileSync(s.path(ref), data)
}

// WriteFileSync writes data durably at name: temporary file in the
// same directory, fsync, rename into place, then fsync the directory
// so the rename itself survives a crash. The store uses it for
// chunks; object servers use it for checkpoint manifests.
func WriteFileSync(name string, data []byte) error {
	tmp, err := writeTemp(name, data)
	if err != nil {
		return err
	}
	return commitTemp(tmp, name)
}

// writeTemp writes data to a fresh temporary file next to name, the
// first half of WriteFileSync. On error nothing is left behind.
func writeTemp(name string, data []byte) (*os.File, error) {
	dir := filepath.Dir(name)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(name)+".tmp")
	if err != nil {
		return nil, err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	return tmp, nil
}

// commitTemp makes a writeTemp file durable under name: fsync, close,
// rename into place, fsync the directory. On error the temporary file
// is removed.
func commitTemp(tmp *os.File, name string) error {
	defer os.Remove(tmp.Name()) // no-op once renamed
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), name); err != nil {
		return err
	}
	if d, err := os.Open(filepath.Dir(name)); err == nil {
		d.Sync() //nolint:errcheck // advisory; some filesystems refuse dir fsync
		d.Close()
	}
	return nil
}

// Frames is a stream of chunk bodies, one per Recv, ended by io.EOF.
// A body is valid only until the next Recv; rpc.UploadReader fits.
type Frames interface {
	Recv() ([]byte, error)
}

// ingestWorkers is how many chunk commits (fsync, rename, directory
// fsync, index) one Ingest runs at once; four covers the 2–7 chunks of
// a typical package upload.
const ingestWorkers = 4

// Ingest stores every chunk body src delivers, unreferenced, as Put
// would: each body is hashed once and skipped if already present. On a
// disk store the body goes to a temporary file before the next Recv,
// so src may recycle it; the commit that makes the chunk durable and
// indexes it then runs on its own goroutine, at most ingestWorkers at
// a time, overlapping the fsyncs of consecutive chunks. (A body the
// stream repeats while its first copy is still committing is written
// again, and counted as a dedup when indexed.) Ingest returns once
// every commit has finished: a nil error means every chunk is on disk,
// renamed into place and indexed. It stops at the first failure and
// returns it; a failed chunk leaves no index entry and no temporary
// file. Memory stores Put each body.
func (s *Store) Ingest(src Frames) error {
	var wg sync.WaitGroup
	errs := make(chan error, 1) // holds the first failure
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	commits := make(chan struct{}, ingestWorkers) // semaphore
	for len(errs) == 0 {
		data, err := src.Recv()
		if err != nil {
			if err != io.EOF {
				fail(err)
			}
			break
		}
		if s.dir == "" {
			if _, err := s.Put(data); err != nil {
				fail(err)
			}
			continue
		}
		start := time.Now()
		mPutBytes.Observe(int64(len(data)))
		ref := RefOf(data)
		if s.present(ref, false) {
			mPutSeconds.ObserveSince(start)
			continue
		}
		tmp, err := writeTemp(s.path(ref), data)
		if err != nil {
			fail(err)
			break
		}
		size := int64(len(data))
		commits <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-commits }()
			defer mPutSeconds.ObserveSince(start)
			if err := commitTemp(tmp, s.path(ref)); err != nil {
				fail(err)
				return
			}
			s.admit(ref, size, nil, 0, false)
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// Get returns a chunk's bytes. Every read is checked — disk reads
// against the content address, memory reads against the CRC-32C taken
// at admission — so corrupted chunk bytes surface as ErrCorrupt
// rather than as silently wrong content. Callers must not modify the
// returned slice of a memory-backed store.
func (s *Store) Get(ref Ref) ([]byte, error) {
	data, release, err := s.GetZC(ref)
	if err != nil {
		return nil, err
	}
	if release == nil {
		return data, nil
	}
	// The caller keeps the slice indefinitely under Get's contract, so
	// a pooled read buffer must be copied out before recycling.
	out := append([]byte(nil), data...)
	release()
	return out, nil
}

// chunkReadBuf sizes the pooled read buffers for disk chunk serves:
// one canonical 256 KiB content chunk. Larger (non-canonical) chunks
// fall back to a plain allocation.
const chunkReadBuf = 256 << 10

// readBufPool recycles disk-read buffers across GetZC calls, so a
// replica streaming a large file allocates no per-chunk buffers.
var readBufPool = sync.Pool{New: func() any {
	b := make([]byte, chunkReadBuf)
	return &b
}}

// GetZC returns a chunk's bytes without copying when possible, plus a
// release function (possibly nil) the caller must invoke exactly once
// when it is completely done with the slice. For memory-backed stores
// the slice aliases the immutable resident bytes and release is nil;
// for disk-backed stores the bytes are read into a pooled buffer that
// release recycles. The bytes are checked exactly like Get's. The
// slice must be treated as read-only and must not be used after
// release.
func (s *Store) GetZC(ref Ref) (data []byte, release func(), err error) {
	start := time.Now()
	defer mGetSeconds.ObserveSince(start)
	sh := s.shardOf(ref)
	sh.mu.Lock()
	e, ok := sh.chunks[ref]
	if !ok || e.gone {
		sh.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %s", ErrMissing, ref.Short())
	}
	sh.touchLocked(e)
	mem, crc := e.data, e.crc
	size := e.size
	sh.mu.Unlock()
	if mem != nil {
		if crc32.Checksum(mem, castagnoli) != crc {
			return nil, nil, fmt.Errorf("%w: %s", ErrCorrupt, ref.Short())
		}
		mServeZeroCopy.Add(int64(len(mem)))
		return mem, nil, nil
	}

	f, err := os.Open(s.path(ref))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %s: %v", ErrMissing, ref.Short(), err)
	}
	var bp *[]byte
	var buf []byte
	if size <= chunkReadBuf {
		bp = readBufPool.Get().(*[]byte)
		buf = (*bp)[:size]
	} else {
		buf = make([]byte, size)
	}
	_, err = io.ReadFull(f, buf)
	f.Close()
	if err != nil {
		if bp != nil {
			readBufPool.Put(bp)
		}
		return nil, nil, fmt.Errorf("%w: %s: %v", ErrMissing, ref.Short(), err)
	}
	if RefOf(buf) != ref {
		if bp != nil {
			readBufPool.Put(bp)
		}
		return nil, nil, fmt.Errorf("%w: %s", ErrCorrupt, ref.Short())
	}
	mServePooled.Add(size)
	if bp == nil {
		return buf, nil, nil
	}
	return buf, func() { readBufPool.Put(bp) }, nil
}

// OpenChunk returns an open handle on a chunk's backing file plus its
// size, so transports that can splice files (sendfile on TCP) serve
// the bytes without them ever entering user space. Ownership of the
// handle passes to the caller.
//
// The bytes are deliberately NOT re-verified against the content
// address on this path — that would require reading them, defeating
// the splice. Integrity is still covered twice over: the client
// verifies the whole file's end-to-end digest from the manifest, and
// the background scrubber re-reads resident chunks and quarantines
// corruption at the source. Memory-backed stores return ErrNotOnDisk;
// callers fall back to GetZC.
func (s *Store) OpenChunk(ref Ref) (*os.File, int64, error) {
	if s.dir == "" {
		return nil, 0, ErrNotOnDisk
	}
	sh := s.shardOf(ref)
	sh.mu.Lock()
	e, ok := sh.chunks[ref]
	if !ok || e.gone {
		sh.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: %s", ErrMissing, ref.Short())
	}
	sh.touchLocked(e)
	size := e.size
	sh.mu.Unlock()
	f, err := os.Open(s.path(ref))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %s: %v", ErrMissing, ref.Short(), err)
	}
	mServeFileOpens.Inc()
	return f, size, nil
}

// Has reports whether a chunk is present (and not quarantined).
func (s *Store) Has(ref Ref) bool {
	sh := s.shardOf(ref)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.chunks[ref]
	return ok && !e.gone
}

// Missing filters refs down to the ones not present, deduplicated,
// in first-seen order. It is a preflight/diagnostic answer only: a
// transfer that must hold chunks across the check pins them instead
// (Retain/PutPinned), as the answer can go stale under eviction.
func (s *Store) Missing(refs []Ref) []Ref {
	var out []Ref
	seen := make(map[Ref]bool)
	for _, ref := range refs {
		if seen[ref] {
			continue
		}
		seen[ref] = true
		sh := s.shardOf(ref)
		sh.mu.Lock()
		e, ok := sh.chunks[ref]
		present := ok && !e.gone
		sh.mu.Unlock()
		if !present {
			out = append(out, ref)
		}
	}
	return out
}

// Retain pins every listed chunk (once per occurrence). It fails
// without side effects if any chunk is absent, so a manifest is
// either fully pinned or not at all. The shards the refs touch are
// locked together (in index order, so concurrent Retains cannot
// deadlock) to keep the check-then-pin atomic.
func (s *Store) Retain(refs []Ref) error {
	var touched [numShards]bool
	for _, ref := range refs {
		touched[ref[0]&(numShards-1)] = true
	}
	for i := range s.shards {
		if touched[i] {
			s.shards[i].mu.Lock()
		}
	}
	unlock := func() {
		for i := range s.shards {
			if touched[i] {
				s.shards[i].mu.Unlock()
			}
		}
	}
	for _, ref := range refs {
		if e, ok := s.shardOf(ref).chunks[ref]; !ok || e.gone {
			unlock()
			return fmt.Errorf("%w: %s", ErrMissing, ref.Short())
		}
	}
	for _, ref := range refs {
		sh := s.shardOf(ref)
		e := sh.chunks[ref]
		if e.refs == 0 && e.elem != nil {
			sh.cold.Remove(e.elem)
			e.elem = nil
		}
		e.refs++
	}
	unlock()
	return nil
}

// Release drops one pin per listed chunk. Unknown refs are ignored so
// teardown paths need not track exactly what a failed Retain pinned.
func (s *Store) Release(refs []Ref) {
	for _, ref := range refs {
		sh := s.shardOf(ref)
		sh.mu.Lock()
		e, ok := sh.chunks[ref]
		if !ok || e.refs == 0 {
			sh.mu.Unlock()
			continue
		}
		e.refs--
		if e.refs > 0 {
			sh.mu.Unlock()
			continue
		}
		if e.gone {
			// The last manifest naming a quarantined chunk is gone; there
			// are no bytes to cache, so the placeholder entry goes too.
			s.dropLocked(sh, ref, e)
		} else if s.cap > 0 {
			e.elem = sh.cold.PushFront(coldRef{ref})
		} else {
			s.dropLocked(sh, ref, e)
		}
		sh.mu.Unlock()
	}
	s.evict()
}

// Sweep deletes every unreferenced chunk — the recovery-time garbage
// collection that reclaims orphans a crash left behind. It returns
// the number of chunks and bytes reclaimed.
func (s *Store) Sweep() (chunks int, bytes int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for el := sh.cold.Front(); el != nil; {
			next := el.Next()
			ref := el.Value.(coldRef).ref
			e := sh.chunks[ref]
			chunks++
			bytes += e.size
			s.dropLocked(sh, ref, e)
			el = next
		}
		sh.mu.Unlock()
	}
	return chunks, bytes
}

// touchLocked refreshes a chunk's LRU position. Caller holds sh.mu.
func (sh *shard) touchLocked(e *entry) {
	if e.elem != nil {
		sh.cold.MoveToFront(e.elem)
	}
}

// evict enforces the capacity by dropping cold chunks. The byte total
// is exact (store-wide); the victim order is per-shard LRU, visited
// round-robin, which approximates global LRU without a cross-shard
// ordering structure. Shards are locked one at a time, never nested,
// so eviction cannot deadlock against Retain's multi-shard lock.
func (s *Store) evict() {
	if s.cap <= 0 {
		return
	}
	for s.bytes.Load() > s.cap {
		evicted := false
		for i := range s.shards {
			if s.bytes.Load() <= s.cap {
				return
			}
			sh := &s.shards[i]
			sh.mu.Lock()
			if el := sh.cold.Back(); el != nil {
				ref := el.Value.(coldRef).ref
				s.dropLocked(sh, ref, sh.chunks[ref])
				s.evictions.Add(1)
				mEvictions.Inc()
				evicted = true
			}
			sh.mu.Unlock()
		}
		if !evicted {
			return // everything resident is pinned
		}
	}
}

// dropLocked removes one chunk from its shard's table (and disk).
// Caller holds sh.mu.
func (s *Store) dropLocked(sh *shard, ref Ref, e *entry) {
	if e.elem != nil {
		sh.cold.Remove(e.elem)
		e.elem = nil
	}
	if e.gone {
		sh.gone--
	}
	delete(sh.chunks, ref)
	s.bytes.Add(-e.size)
	if s.dir != "" {
		os.Remove(s.path(ref))
	}
}

// Lost returns the number of quarantined placeholder entries still
// awaiting repair: refs that live manifests pin but that currently
// answer ErrMissing. A store is healed when this returns to zero.
func (s *Store) Lost() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.gone
		sh.mu.Unlock()
	}
	return n
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Dedup:       s.dedup.Load(),
		Evictions:   s.evictions.Load(),
		Quarantined: s.quarantined.Load(),
		Repaired:    s.repaired.Load(),
		Scrubbed:    s.scrubbedB.Load(),
		Bytes:       s.bytes.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		// Quarantined placeholders hold no content; they are not chunks.
		st.Chunks += len(sh.chunks) - sh.gone
		sh.mu.Unlock()
	}
	return st
}

// Refs returns the refs of every resident chunk; tests and sweeps use
// it.
func (s *Store) Refs() []Ref {
	var out []Ref
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for ref, e := range sh.chunks {
			if !e.gone {
				out = append(out, ref)
			}
		}
		sh.mu.Unlock()
	}
	return out
}
