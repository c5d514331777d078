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
	// in a file a transport could splice (memory-backed store).
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
	// Quarantined counts chunks a read or the scrubber found corrupt and
	// set aside (cumulative).
	Quarantined int64
	// Repaired counts quarantined chunks healed by a later Put
	// (cumulative).
	Repaired int64
	// Scrubbed counts bytes of chunk content the scrubber has verified
	// (cumulative).
	Scrubbed int64
}

// entry is the in-memory record of one chunk. A memory chunk's bytes
// are data, with crc the CRC-32C of data, taken at admission right
// after the SHA-256 that names the bytes, so each read checks them at
// CRC speed. A disk chunk's body sits at off in segment seg. elem is
// non-nil while the chunk sits on its shard's cold (refs == 0) LRU
// list. gone marks a quarantined chunk: a read found its bytes corrupt
// and set them aside, but live manifests still pin the ref, so the
// entry stays in the table — carrying the reference count across the
// repair — while behaving as absent to every reader until a fresh Put
// heals it.
type entry struct {
	size int64
	refs int
	data []byte
	crc  uint32
	seg  *segment
	off  int64
	elem *list.Element
	gone bool
}

// at names where a read found one chunk's bytes: a record in a
// segment, or a memory copy.
type at struct {
	seg *segment
	off int64
	mem []byte
}

// where returns the location of e's bytes.
func (e *entry) where() at { return at{seg: e.seg, off: e.off, mem: e.data} }

// is reports whether e's bytes are still the ones at a.
func (a at) is(e *entry) bool {
	if e.gone {
		return false
	}
	if a.seg != nil {
		return e.seg == a.seg && e.off == a.off
	}
	return len(a.mem) > 0 && len(e.data) > 0 && &e.data[0] == &a.mem[0]
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

	// Segment files of a disk store (segment.go). segMu orders appends
	// and guards the segment table.
	segMu  sync.Mutex
	segs   map[uint32]*segment
	active *segment
	nextID uint32

	// The background reclaimer: at most one runs, started on demand.
	reclaiming atomic.Bool
	reclaimMu  sync.Mutex // orders starts against Close
	reclaimWG  sync.WaitGroup
	closed     atomic.Bool
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
// (recovery). A directory in the one-file-per-chunk layout of earlier
// versions fails Open and is left as it is. An empty dir selects a
// memory-backed store.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{dir: dir, segs: make(map[uint32]*segment)}
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
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// Close stops the store's background work and closes its segment
// files. A closed store must not be used again; closing twice is
// harmless.
func (s *Store) Close() error {
	s.StopScrubber()
	s.reclaimMu.Lock()
	s.closed.Store(true)
	s.reclaimMu.Unlock()
	s.reclaimWG.Wait()
	s.closeSegments()
	return nil
}

// coldRef is the LRU list payload: the ref of a refs==0 chunk.
type coldRef struct{ ref Ref }

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
	if s.dir == "" {
		mem := append([]byte(nil), data...)
		s.admit(ref, &entry{size: int64(len(mem)), data: mem, crc: crc32.Checksum(mem, castagnoli)}, pin)
		return ref, nil
	}
	w, err := s.appendRecord(ref, data)
	if err != nil {
		return ref, err
	}
	return ref, s.commit([]written{w}, pin)
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

// admit indexes a chunk whose bytes are durable on disk, or held in
// memory as the store's own copy: n carries its size and location.
func (s *Store) admit(ref Ref, n *entry, pin bool) {
	sh := s.shardOf(ref)
	sh.mu.Lock()
	if e, ok := sh.chunks[ref]; ok {
		if e.gone {
			// Healing a quarantined chunk: fresh (verified) bytes are
			// stored again. The entry kept the reference count of every
			// manifest that still names the ref, so pins survive the
			// corruption-and-repair round trip.
			e.gone = false
			sh.gone--
			e.size = n.size
			e.data, e.crc = n.data, n.crc
			e.seg, e.off = n.seg, n.off
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
		// Raced with another Put of the same content: its copy stays,
		// and a second record on disk is dead.
		s.dedupLocked(sh, ref, e, pin)
		sh.mu.Unlock()
		if n.seg != nil {
			s.deadRecord(n.seg, n.size)
		}
		return
	}
	e := n
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

// Frames is a stream of chunk bodies, one per Recv, ended by io.EOF.
// A body is valid only until the next Recv; rpc.UploadReader fits.
type Frames interface {
	Recv() ([]byte, error)
}

// Ingest stores every chunk body src delivers, unreferenced, as Put
// would: each body is hashed once and skipped if already present. On a
// disk store each missing body is appended to the active segment
// before the next Recv, so src may recycle it; at the end of the
// stream one fsync per segment written makes them durable, and only
// then are they indexed. (A body the stream repeats is appended again
// and counted as a dedup when indexed.) A nil error means every chunk
// is durable and indexed. On a failure Ingest indexes nothing from the
// stream and returns the error; what it appended is dead space for
// compaction. Memory stores Put each body.
func (s *Store) Ingest(src Frames) error {
	var recs []written
	var spent time.Duration // hashing and appending, all chunks
	for {
		data, err := src.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.abandon(recs)
			return err
		}
		if s.dir == "" {
			if _, err := s.Put(data); err != nil {
				return err
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
		w, err := s.appendRecord(ref, data)
		if err != nil {
			s.abandon(recs)
			return err
		}
		recs = append(recs, w)
		spent += time.Since(start)
	}
	if len(recs) == 0 {
		return nil
	}
	start := time.Now()
	if err := s.commit(recs, false); err != nil {
		return err
	}
	// Each stored chunk is observed once, at an equal share of the
	// upload's store time, the shared commit included.
	per := (spent + time.Since(start)) / time.Duration(len(recs))
	for range recs {
		mPutSeconds.Observe(int64(per))
	}
	return nil
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
// release recycles. The bytes are checked exactly like Get's, and a
// chunk that fails its check is quarantined, so the next fill fetches
// it afresh. The slice must be treated as read-only and must not be
// used after release.
func (s *Store) GetZC(ref Ref) (data []byte, release func(), err error) {
	start := time.Now()
	defer mGetSeconds.ObserveSince(start)
	data, release, err = s.read(ref, true)
	if err != nil {
		return nil, nil, err
	}
	if s.dir == "" {
		mServeZeroCopy.Add(int64(len(data)))
	} else {
		mServePooled.Add(int64(len(data)))
	}
	return data, release, nil
}

// read returns ref's bytes, checked, refreshing its LRU position when
// touch is set. A chunk that fails its check is quarantined and
// answers ErrCorrupt.
func (s *Store) read(ref Ref, touch bool) ([]byte, func(), error) {
	for {
		where, size, crc, err := s.locate(ref, touch)
		if err != nil {
			return nil, nil, err
		}
		if where.seg == nil {
			if crc32.Checksum(where.mem, castagnoli) != crc {
				s.quarantine(ref, where, nil)
				return nil, nil, fmt.Errorf("%w: %s", ErrCorrupt, ref.Short())
			}
			return where.mem, nil, nil
		}
		data, release, err := readBody(where.seg, where.off, size)
		if err != nil {
			if errClosedSegment(err) && s.moved(ref, where) {
				continue // compaction moved the record under us
			}
			return nil, nil, fmt.Errorf("%w: %s: %v", ErrMissing, ref.Short(), err)
		}
		if RefOf(data) != ref {
			s.quarantine(ref, where, data)
			if release != nil {
				release()
			}
			return nil, nil, fmt.Errorf("%w: %s", ErrCorrupt, ref.Short())
		}
		return data, release, nil
	}
}

// locate snapshots where ref's bytes are.
func (s *Store) locate(ref Ref, touch bool) (where at, size int64, crc uint32, err error) {
	sh := s.shardOf(ref)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.chunks[ref]
	if !ok || e.gone {
		return at{}, 0, 0, fmt.Errorf("%w: %s", ErrMissing, ref.Short())
	}
	if touch {
		sh.touchLocked(e)
	}
	return e.where(), e.size, e.crc, nil
}

// moved reports whether ref is still indexed, but no longer at where.
func (s *Store) moved(ref Ref, where at) bool {
	sh := s.shardOf(ref)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.chunks[ref]
	return ok && !e.gone && !where.is(e)
}

// OpenChunk returns a fresh handle on the segment file holding a
// chunk, positioned at the chunk's body, plus the body's size, so
// transports that can splice files (sendfile on TCP) serve the bytes
// without them ever entering user space. Ownership of the handle
// passes to the caller.
//
// The bytes are deliberately NOT re-verified against the content
// address on this path — that would require reading them, defeating
// the splice; on a secured channel the transport reads them once,
// into the sealed record, and still does not hash them. Integrity is
// still covered twice over: the reading proxy checks every whole read
// against the file's digest from the manifest (SHA-256 on the first
// read of a digest, then CRC-32C against the CRC that read memoised),
// and the background scrubber re-reads resident chunks and
// quarantines corruption at the source. Memory-backed stores return
// ErrNotOnDisk; callers fall back to GetZC.
func (s *Store) OpenChunk(ref Ref) (*os.File, int64, error) {
	if s.dir == "" {
		return nil, 0, ErrNotOnDisk
	}
	for {
		where, size, _, err := s.locate(ref, true)
		if err != nil {
			return nil, 0, err
		}
		f, err := os.Open(filepath.Join(s.dir, segName(where.seg.id)))
		if err == nil {
			_, err = f.Seek(where.off, io.SeekStart)
			if err != nil {
				f.Close()
			}
		}
		if err != nil {
			if errClosedSegment(err) && s.moved(ref, where) {
				continue // compaction moved the record under us
			}
			return nil, 0, fmt.Errorf("%w: %s: %v", ErrMissing, ref.Short(), err)
		}
		mServeFileOpens.Inc()
		return f, size, nil
	}
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

// Sweep drops every unreferenced chunk — the recovery-time garbage
// collection that reclaims orphans a crash left behind; their disk
// space goes back through the reclaimer. It returns the number of
// chunks and bytes reclaimed.
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

// dropLocked removes one chunk from its shard's table. Its record, if
// any, becomes dead space for the reclaimer; nothing is unlinked here.
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
	if e.seg != nil {
		s.deadRecord(e.seg, e.size)
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
