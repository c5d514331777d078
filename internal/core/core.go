// Package core implements Globe's distributed shared object (DSO)
// framework: the paper's central abstraction (§3.2-3.4, Figure 1).
//
// A DSO is a single conceptual object physically distributed over many
// address spaces. In each participating address space it is represented
// by a local representative (LR) composed of four subobjects:
//
//   - the semantics subobject carries the application logic and state
//     (implemented by users of this package, e.g. internal/pkgobj);
//   - the control subobject bridges typed method calls and the standard
//     replication interface by marshalling calls into opaque invocation
//     messages;
//   - the replication subobject decides where invocations execute and
//     keeps replica state consistent; protocols live in internal/repl
//     and are selected per object — the property the whole paper turns
//     on;
//   - the communication subobject moves opaque messages between the
//     LRs of one object; here it is the Dispatcher/PeerClient pair
//     running over the rpc and transport layers.
//
// Replication and communication subobjects never interpret invocation
// contents: they see only opaque byte strings with a method identifier
// and a read/write classification, mirroring the paper's reflective
// design (§3.3).
//
// The Runtime implements binding (§3.4): given an object identifier it
// asks the Globe Location Service for contact addresses, loads the
// implementation named by the chosen address from the local Registry
// (the stand-in for remote class loading from an implementation
// repository), composes an LR, and returns it ready for invocations.
package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"gdn/internal/obs"
	"gdn/internal/store"
	"gdn/internal/wire"
)

// Errors reported by the DSO framework.
var (
	// ErrNoImplementation is returned when binding needs an
	// implementation the local registry does not hold.
	ErrNoImplementation = errors.New("core: implementation not in local registry")
	// ErrNoProtocol is returned for unknown replication protocols.
	ErrNoProtocol = errors.New("core: replication protocol not registered")
	// ErrClosed is returned by invocations on a closed representative.
	ErrClosed = errors.New("core: local representative is closed")
	// ErrNoBulk is returned when bulk (manifest) access is asked of a
	// semantics that does not store its content in a chunk store.
	ErrNoBulk = errors.New("core: semantics has no chunked bulk content")
	// ErrDigestMismatch is returned by a whole-item bulk read whose
	// bytes failed verification against the manifest's digest.
	ErrDigestMismatch = errors.New("core: digest mismatch")
)

// Invocation is one marshalled method call: the opaque unit that
// control, replication and communication subobjects pass around.
type Invocation struct {
	// Method is the method identifier from the object's interface.
	Method string
	// Args holds the marshalled parameters; the semantics subobject is
	// the only party that interprets them.
	Args []byte
	// Write classifies the method as state-modifying. The control
	// subobject sets it from the interface definition; replication
	// protocols route reads and writes differently, and servers enforce
	// write authorization on it (paper §6.1).
	Write bool
}

// Encode serializes the invocation.
func (inv Invocation) Encode() []byte {
	w := wire.NewWriter(16 + len(inv.Method) + len(inv.Args))
	w.Str(inv.Method)
	w.Bool(inv.Write)
	w.Bytes32(inv.Args)
	return w.Bytes()
}

// DecodeInvocation reverses Encode.
func DecodeInvocation(b []byte) (Invocation, error) {
	r := wire.NewReader(b)
	inv := Invocation{Method: r.Str(), Write: r.Bool(), Args: r.Bytes32()}
	if err := r.Done(); err != nil {
		return Invocation{}, err
	}
	return inv, nil
}

// Semantics is the semantics subobject: user-defined application logic
// written without any distribution or replication concerns (§3.3).
// Implementations need not be safe for concurrent use: the framework
// wraps each one in a LocalExec, which serializes access.
type Semantics interface {
	// Invoke executes one marshalled method against local state and
	// returns the marshalled result.
	Invoke(inv Invocation) ([]byte, error)
	// MarshalState serializes the full object state, used for replica
	// creation, state transfer between representatives, and object
	// server persistence.
	MarshalState() ([]byte, error)
	// UnmarshalState replaces local state with a marshalled snapshot.
	UnmarshalState(b []byte) error
}

// Manifest describes one bulk item (a package file): its ordered
// chunks in a content-addressed store, the total size, and the
// whole-content digest a reader verifies end to end (paper §6.1).
// Remote readers see only Size and Digest; Chunks stays local.
type Manifest struct {
	Chunks []store.Chunk
	Size   int64
	Digest [sha256.Size]byte
}

// Refs returns the manifest's chunk refs in order.
func (m Manifest) Refs() []store.Ref {
	out := make([]store.Ref, len(m.Chunks))
	for i, c := range m.Chunks {
		out[i] = c.Ref
	}
	return out
}

// Verify checks a whole-item read against the manifest: written bytes
// whose SHA-256 is sum must be exactly the item's content.
func (m Manifest) Verify(path string, written int64, sum [sha256.Size]byte) error {
	if written != m.Size {
		return fmt.Errorf("core: %q truncated: %d of %d bytes", path, written, m.Size)
	}
	if sum != m.Digest {
		return fmt.Errorf("%w: %q: content corrupted in transit or at a replica", ErrDigestMismatch, path)
	}
	return nil
}

// ChunkSpan is one chunk's contribution to a byte range of a
// manifest: the index into Chunks plus the intra-chunk bounds [A, B)
// that fall inside the range.
type ChunkSpan struct {
	Index int
	A, B  int64
}

// ChunkRange resolves the byte range [off, off+n) of the manifest
// (n < 0 means to end) to the chunk spans covering it. This is the
// single copy of the range/clamp arithmetic behind local reads,
// streamed bulk reads and chunked GetFileChunk — prefetching serve
// loops plan their fetches from the spans.
func (m Manifest) ChunkRange(off, n int64) []ChunkSpan {
	if n < 0 {
		n = m.Size
	}
	if off < 0 {
		off = 0
	}
	end := off + n
	if end > m.Size {
		end = m.Size
	}
	var spans []ChunkSpan
	pos := int64(0)
	for i, c := range m.Chunks {
		if pos >= end {
			break
		}
		if pos+c.Size <= off {
			pos += c.Size
			continue
		}
		a, b := int64(0), c.Size
		if off > pos {
			a = off - pos
		}
		if pos+b > end {
			b = end - pos
		}
		spans = append(spans, ChunkSpan{Index: i, A: a, B: b})
		pos += c.Size
	}
	return spans
}

// WalkRange feeds fn the byte range [off, off+n) of the manifest's
// content out of st, chunk by chunk (n < 0 means to end). Slices are
// valid only during the callback — chunk bytes arrive through the
// store's zero-copy read (GetZC), so pooled disk-read buffers are
// recycled as soon as fn returns.
func (m Manifest) WalkRange(st *store.Store, off, n int64, fn func(p []byte) error) error {
	for _, sp := range m.ChunkRange(off, n) {
		c := m.Chunks[sp.Index]
		data, release, err := st.GetZC(c.Ref)
		if err != nil {
			return fmt.Errorf("core: bulk content lost chunk %s: %w", c.Ref.Short(), err)
		}
		if int64(len(data)) != c.Size {
			// The hash vouches for the bytes, not the manifest's claimed
			// length; never let a lying size drive slice arithmetic.
			if release != nil {
				release()
			}
			return fmt.Errorf("core: chunk %s is %d bytes, manifest claims %d", c.Ref.Short(), len(data), c.Size)
		}
		err = fn(data[sp.A:sp.B])
		if release != nil {
			release()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ChunkStored is implemented by semantics subobjects that keep bulk
// content in a content-addressed chunk store. The runtime injects the
// hosting process's shared store (an object server's durable store, a
// proxy cache's LRU store) before any state is seeded.
type ChunkStored interface {
	// UseStore re-homes the semantics onto st.
	UseStore(st *store.Store)
	// Store returns the store currently backing the semantics.
	Store() *store.Store
}

// BulkSource is the optional semantics interface behind streamed bulk
// reads: it maps a path to the manifest of its content. The returned
// manifest's chunks are retained in the store on the caller's behalf;
// the caller must Release them when done, so a concurrent write
// cannot delete chunks out from under an in-flight stream.
type BulkSource interface {
	FileManifest(path string) (Manifest, error)
}

// ChunkedState is the optional semantics interface for delta state
// transfer: a stateless parse of the chunk refs a marshalled state
// references, so a receiver can fetch exactly the chunks it lacks.
type ChunkedState interface {
	StateRefs(state []byte) ([]store.Ref, error)
}

// LocalExec gives replication subobjects serialized access to the
// semantics subobject co-resident in their LR: a mutex lets the local
// client and inbound protocol traffic run concurrently. Bulk and
// chunked-state access degrade to ErrNoBulk and nil refs for
// semantics that lack them.
type LocalExec struct {
	mu  sync.Mutex
	sem Semantics
	// verified holds, by digest, each manifest whose chunks a
	// whole-item read has hashed to that digest since the last write
	// or state install (ReadBulk). An entry states a fact about
	// content-addressed chunks, so one added by a read that raced a
	// write is stale but still true; the clear only bounds the memo to
	// the items of the current state.
	verified map[[sha256.Size]byte]Manifest
}

// NewLocalExec wraps a semantics subobject for serialized access.
func NewLocalExec(sem Semantics) *LocalExec {
	return &LocalExec{sem: sem}
}

// Execute runs an invocation against the local semantics.
func (le *LocalExec) Execute(inv Invocation) ([]byte, error) {
	le.mu.Lock()
	defer le.mu.Unlock()
	if inv.Write {
		le.verified = nil
	}
	return le.sem.Invoke(inv)
}

// MarshalState serializes the local semantics' state.
func (le *LocalExec) MarshalState() ([]byte, error) {
	le.mu.Lock()
	defer le.mu.Unlock()
	return le.sem.MarshalState()
}

// UnmarshalState replaces the local semantics' state.
func (le *LocalExec) UnmarshalState(b []byte) error {
	le.mu.Lock()
	defer le.mu.Unlock()
	le.verified = nil
	return le.sem.UnmarshalState(b)
}

// FileManifest is the serialized BulkSource.FileManifest; ErrNoBulk
// when the semantics keeps no bulk content.
func (le *LocalExec) FileManifest(path string) (Manifest, error) {
	bs, ok := le.sem.(BulkSource)
	if !ok {
		return Manifest{}, ErrNoBulk
	}
	le.mu.Lock()
	defer le.mu.Unlock()
	return bs.FileManifest(path)
}

// StateRefs is ChunkedState.StateRefs; a nil ref slice with nil error
// means the semantics does not chunk its state.
func (le *LocalExec) StateRefs(state []byte) ([]store.Ref, error) {
	cs, ok := le.sem.(ChunkedState)
	if !ok {
		return nil, nil
	}
	// The parse is stateless; no lock needed.
	return cs.StateRefs(state)
}

// ReadBulk is the local half of Replication.ReadBulk, shared by every
// representative whose content is co-resident: it feeds fn the byte
// range [off, off+n) of the named item straight out of st (n < 0
// means to end), holding the manifest's chunks retained for the walk.
//
// A whole-item read (off == 0, n < 0) is verified. The first one of a
// manifest hashes the content as it flows and checks it against the
// manifest's size and digest; on success the manifest is memoised
// until the next write or state install. Later whole-item reads of the
// same manifest (same digest, size, and chunk refs with sizes) run no
// SHA-256: st checks every chunk it hands out against its address
// (disk) or the checksum taken when the verified bytes were admitted
// (memory), so chunks that once hashed to the digest still do. Either
// way a chunk that fails its store check fails the read with
// ErrDigestMismatch. A range read rests on the store's per-chunk
// checks alone.
func (le *LocalExec) ReadBulk(tc obs.SpanContext, st *store.Store, path string, off, n int64, fn func([]byte) error) (Manifest, error) {
	if st == nil {
		return Manifest{}, ErrNoBulk
	}
	m, err := le.FileManifest(path)
	if err != nil {
		return Manifest{}, err
	}
	defer st.Release(m.Refs())
	span := obs.StartSpan(tc, "store.walk "+path)
	whole := off == 0 && n < 0
	if whole && !le.isVerified(m) {
		err = le.walkVerify(st, path, m, fn)
	} else {
		err = m.WalkRange(st, off, n, fn)
	}
	if whole && errors.Is(err, store.ErrCorrupt) {
		err = fmt.Errorf("%w: %q: %w", ErrDigestMismatch, path, err)
	}
	span.SetError(err)
	span.End()
	return m, err
}

// isVerified reports whether a whole-item read already verified m.
func (le *LocalExec) isVerified(m Manifest) bool {
	le.mu.Lock()
	defer le.mu.Unlock()
	v, ok := le.verified[m.Digest]
	return ok && v.Size == m.Size && slices.Equal(v.Chunks, m.Chunks)
}

// walkVerify feeds fn the whole of m, hashing it on the way, and
// memoises m once its content matches the digest.
func (le *LocalExec) walkVerify(st *store.Store, path string, m Manifest, fn func([]byte) error) error {
	h := sha256.New()
	var written int64
	err := m.WalkRange(st, 0, -1, func(p []byte) error {
		h.Write(p)
		written += int64(len(p))
		return fn(p)
	})
	if err != nil {
		return err
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	if err := m.Verify(path, written, sum); err != nil {
		return err
	}
	m.Chunks = slices.Clone(m.Chunks)
	le.mu.Lock()
	if le.verified == nil {
		le.verified = make(map[[sha256.Size]byte]Manifest)
	}
	le.verified[m.Digest] = m
	le.mu.Unlock()
	return nil
}

// Replication is the replication subobject's standard interface. A
// proxy-side implementation forwards invocations to remote replicas; a
// replica-side implementation executes locally and keeps peers
// consistent. Implementations must be safe for concurrent use.
type Replication interface {
	// Invoke routes one invocation through the protocol and returns the
	// marshalled result plus the virtual network cost incurred.
	Invoke(inv Invocation) ([]byte, time.Duration, error)
	// ReadBulk streams a bulk item: fn receives the byte range
	// [off, off+n) of the named item in chunk-sized slices (n < 0 means
	// to end of item), valid only during the callback. Representatives
	// holding the content read their local store (LocalExec.ReadBulk);
	// proxies open an OpBulkRead stream to a remote representative, so
	// peak buffering is O(chunk) either way. The returned manifest
	// carries at least the item's Size and Digest.
	//
	// A nil error on a whole-item read (off == 0, n < 0) means the
	// bytes fn received were verified against the manifest's size and
	// SHA-256 digest — the GDN's integrity guarantee (§6.1). Local
	// content is hashed once per manifest and then rests on the store's
	// per-chunk checks (LocalExec.ReadBulk). A proxy hashes a remote
	// stream once per digest: every whole read runs CRC-32C as it
	// flows, across failover resumes; the first read of a digest also
	// runs SHA-256 and, on a match, memoises the content's CRC, and
	// later whole reads of that digest pass only if size and CRC match
	// the memo (a random corruption then escapes with probability
	// 2⁻³², not 2⁻²⁵⁶). A resume whose replica names another digest
	// fails at once. Content that fails the check ends the read with an
	// error wrapping
	// ErrDigestMismatch (or reporting truncation), possibly after fn
	// took every byte, so a consumer must not treat the bytes as good
	// until ReadBulk returns nil. A range read cannot be checked
	// against the whole-item digest; it rests on the chunk layer (store
	// reads and cache fills check each chunk, and the scrubber covers
	// chunks a replica splices from disk).
	//
	// tc is the caller's trace context: proxies carry it across the
	// OpBulkRead hop (and any cache-fill calls it forces) so a traced
	// download's hop chain stays connected; the zero context means
	// untraced and costs nothing.
	ReadBulk(tc obs.SpanContext, path string, off, n int64, fn func(p []byte) error) (Manifest, time.Duration, error)
	// Close detaches from peers and releases endpoints.
	Close() error
}

// ChunkNegotiator is the optional replication-subobject interface
// behind negotiated bulk writes: before a manifest-bearing write names
// content chunks, the writer makes them present at every store that
// write will read, shipping only what each lacks (PutChunks, over
// OpChunkHave and an OpChunkPut upload stream). Proxies whose writes
// land on a single replica (the clientserver server, the masterslave
// master) upload through any candidate, since every candidate either
// is that replica or relays chunk traffic to it; active replication,
// whose writes replay at every peer, uploads to each replica of the
// roster in turn and fails if any is unreachable.
type ChunkNegotiator interface {
	// PutChunks makes every listed chunk, read from src, present in
	// the write-target stores, where it sits unreferenced (and
	// crash-sweepable) until a manifest write pins it.
	PutChunks(src ChunkSource, refs []store.Ref) (UploadStats, time.Duration, error)
}

// Control is the control subobject: the bridge between an object's
// user-defined interfaces and the standard replication interface
// (§3.3). Typed stubs (the hand-written equivalent of the paper's
// IDL-generated code) marshal their parameters and call Invoke.
type Control struct {
	repl Replication

	mu     sync.Mutex
	closed bool
}

// NewControl returns a control subobject driving repl.
func NewControl(repl Replication) *Control {
	return &Control{repl: repl}
}

// Invoke marshals one method call and hands it to the replication
// subobject.
func (c *Control) Invoke(method string, write bool, args []byte) ([]byte, time.Duration, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, 0, fmt.Errorf("%w: invoking %s", ErrClosed, method)
	}
	return c.repl.Invoke(Invocation{Method: method, Args: args, Write: write})
}

// Close shuts the control and its replication subobject down.
func (c *Control) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.repl.Close()
}
