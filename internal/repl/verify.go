package repl

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"hash/crc32"
	"sync"

	"gdn/internal/core"
	"gdn/internal/wire"
)

// The proxy's whole-read check: see "The bulk read path" in doc.go.

// castagnoli is the CRC-32C table; hash/crc32 runs it on the CPU's
// CRC32 instruction.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeBulkHead encodes what a serving replica states about the item
// a stream carries: its head frame and its trailer.
func encodeBulkHead(m core.Manifest) []byte {
	w := wire.NewWriter(8 + sha256.Size)
	w.Int64(m.Size)
	w.Hash(m.Digest)
	return w.Bytes()
}

// decodeBulkHead reverses encodeBulkHead, refusing a negative size.
func decodeBulkHead(b []byte) (core.Manifest, error) {
	r := wire.NewReader(b)
	m := core.Manifest{Size: r.Int64(), Digest: r.Hash()}
	if err := r.Done(); err != nil {
		return core.Manifest{}, fmt.Errorf("repl: bulk head: %w", err)
	}
	if m.Size < 0 {
		return core.Manifest{}, fmt.Errorf("repl: bulk head claims %d bytes", m.Size)
	}
	return m, nil
}

// decodeBulkTrailer decodes a stream's trailer, which must state the
// same item as the stream's head.
func decodeBulkTrailer(head core.Manifest, b []byte) (core.Manifest, error) {
	m, err := decodeBulkHead(b)
	if err != nil {
		return core.Manifest{}, err
	}
	if !sameItem(m, head) {
		return core.Manifest{}, fmt.Errorf("%w: a stream's trailer names other content than its head", core.ErrDigestMismatch)
	}
	return m, nil
}

// sameItem reports whether two heads state the same size and digest.
func sameItem(a, b core.Manifest) bool {
	return a.Size == b.Size && a.Digest == b.Digest
}

// memoCap bounds a proxy's verify memo.
const memoCap = 256

// memoEntry is what a whole read that matched its digest leaves
// behind: the content's size and CRC-32C.
type memoEntry struct {
	size int64
	crc  uint32
}

// verifyMemo maps a content digest to the CRC-32C of that content. An
// entry is added only after a whole read's SHA-256 matched the digest.
// The map is allocated on first insert and freed by reset; when full,
// an insert evicts an arbitrary entry.
type verifyMemo struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte]memoEntry
}

// lookup returns the memoised entry for the digest and size.
func (vm *verifyMemo) lookup(digest [sha256.Size]byte, size int64) (memoEntry, bool) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	e, ok := vm.m[digest]
	return e, ok && e.size == size
}

// add records that content with this digest has size and crc.
func (vm *verifyMemo) add(digest [sha256.Size]byte, e memoEntry) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	if vm.m == nil {
		vm.m = make(map[[sha256.Size]byte]memoEntry)
	}
	if _, ok := vm.m[digest]; !ok && len(vm.m) >= memoCap {
		for d := range vm.m {
			delete(vm.m, d)
			break
		}
	}
	vm.m[digest] = e
}

// reset forgets every entry and frees the map.
func (vm *verifyMemo) reset() {
	vm.mu.Lock()
	vm.m = nil
	vm.mu.Unlock()
}

// wholeRead checks one whole-item read across failover resumes. begin
// is called with the first head, before any content byte; sink feeds
// the consumer; verify judges what was delivered once the last stream
// ended; stop joins the hasher.
type wholeRead struct {
	memo *verifyMemo
	fn   func([]byte) error
	crc  uint32
	// On a memo hit, want holds the content's size and CRC.
	hit  bool
	want memoEntry
	// On a miss, a goroutine hashes each slice sent on in into h and
	// answers on hashed, concurrently with fn: SHA-256 touches every
	// byte once more than the consumer does, so each chunk costs
	// max(hash, consume) instead of their sum. Stream frames are
	// recycled after sink returns, so sink waits for the answer and
	// the goroutine never retains a slice.
	h      hash.Hash
	in     chan []byte
	hashed chan struct{}
}

func (wr *wholeRead) begin(head core.Manifest) {
	if wr.want, wr.hit = wr.memo.lookup(head.Digest, head.Size); wr.hit {
		return
	}
	wr.h, wr.in, wr.hashed = sha256.New(), make(chan []byte), make(chan struct{})
	go func() {
		for p := range wr.in {
			wr.h.Write(p)
			wr.hashed <- struct{}{}
		}
		close(wr.hashed)
	}()
}

func (wr *wholeRead) sink(p []byte) error {
	if wr.in != nil {
		wr.in <- p
		mVerifySHA.Add(int64(len(p)))
	}
	wr.crc = crc32.Update(wr.crc, castagnoli, p)
	mVerifyCRC.Add(int64(len(p)))
	err := wr.fn(p)
	if wr.in != nil {
		<-wr.hashed
	}
	return err
}

// verify checks delivered bytes against the final trailer m, which
// states the same item as the first head. A miss whose SHA-256
// matches memoises the content's CRC.
func (wr *wholeRead) verify(path string, m core.Manifest, delivered int64) error {
	if !wr.hit {
		wr.stop()
		var sum [sha256.Size]byte
		wr.h.Sum(sum[:0])
		if err := m.Verify(path, delivered, sum); err != nil {
			return err
		}
		wr.memo.add(m.Digest, memoEntry{size: m.Size, crc: wr.crc})
		return nil
	}
	// The digest stands in for the hash here, so Verify checks the size.
	if err := m.Verify(path, delivered, m.Digest); err != nil {
		return err
	}
	if wr.crc != wr.want.crc {
		return fmt.Errorf("%w: %q: content corrupted in transit or at a replica", core.ErrDigestMismatch, path)
	}
	return nil
}

// stop joins the hasher, if one runs; it is idempotent.
func (wr *wholeRead) stop() {
	if wr.in != nil {
		close(wr.in)
		<-wr.hashed
		wr.in = nil
	}
}
