// Package store implements the content-addressed chunk store that
// backs bulk package content everywhere in the GDN: object servers
// persist replica state through it, GDN HTTPDs cache downloaded
// chunks in it, and the replication protocols ship only the chunks a
// receiver is missing because equal content always has the equal key.
//
// A chunk is an immutable byte string addressed by its SHA-256 digest
// (its Ref). Addressing by content gives three properties the paper
// asks of the GDN at once: identical content stored once no matter how
// many packages or versions reference it (packages "can be very
// large", §2), end-to-end integrity — a reader that verifies the
// digest cannot be served corrupted content by a replica or proxy
// (§6.1) — and cheap delta transfer, because a receiver can name
// exactly the chunks it lacks.
//
// # Verification
//
// Every chunk is hashed once on the way in: Put and Ingest compute the
// ref from the bytes, so a store never holds content under a false
// address. Reads check again at the cost the medium calls for. A disk
// read re-hashes the chunk with SHA-256 against its address, since
// media and other processes can change a file. A memory chunk records
// a CRC-32C of its bytes at admission, right after the SHA-256 that
// names them, and every Get/GetZC checks it: an order of magnitude
// cheaper than SHA-256 on CPUs with a CRC32 instruction, and enough to
// catch bytes changed in memory.
// A mismatch either way is ErrCorrupt, and quarantines the chunk (see
// scrub.go): it answers ErrMissing from then on and no longer counts
// as present, so the next state transfer or cache fill fetches it
// again and heals it in place. Compaction and the background scrubber
// check chunks the same way. OpenChunk alone hands out bytes
// unchecked (see below). Readers that assemble whole files lean on
// this: a file whose chunk list once hashed to its digest, read back
// through checked chunks, is the same content, so the whole-file
// digest need not be recomputed on every read (core.LocalExec.ReadBulk).
//
// # Ownership
//
// Chunks are reference counted. Retain pins a chunk on behalf of a
// manifest that names it (a package file, a tagged version, an object
// server's on-disk checkpoint); Release drops the pin. What happens
// when the count reaches zero depends on the store's mode:
//
//   - plain stores drop the chunk immediately — the index holds
//     exactly the content live manifests reference (on disk its record
//     becomes dead space, reclaimed as described under Layout);
//   - cache stores (WithCapacity) keep released chunks on an LRU list
//     and evict from its cold end only when the capacity is exceeded.
//     This is the proxy-cache mode: a cache replica that drops its
//     state keeps the bytes around, so a later refill fetches only
//     chunks that were actually evicted.
//
// # Concurrency
//
// The index is striped across 16 shards keyed by the first byte of the
// ref (SHA-256 output is uniform, so the stripes balance for free):
// each shard has its own mutex, chunk table and cold LRU list, so
// concurrent downloads touching different chunks never serialize on
// one lock. The capacity bound is exact — a store-wide atomic byte
// counter — while eviction order is per-shard LRU visited round-robin,
// a deliberate approximation of global LRU that avoids any cross-shard
// ordering structure. Retain locks every shard its refs touch in index
// order (never nested with eviction's one-at-a-time locking), keeping
// its all-or-nothing promise exact.
//
// # Buffer ownership on the serve path
//
// Get copies, GetZC does not: GetZC returns the chunk bytes plus a
// release callback the caller must invoke exactly once when the slice
// is fully consumed. For memory stores the slice aliases the immutable
// resident bytes (release is nil); for disk stores the bytes land in a
// pooled read buffer that release recycles. The RPC stream layer
// carries that same (buffer, release) pair to the transport and fires
// release at write completion, so one chunk buffer travels
// store→rpc→wire with zero intermediate copies. OpenChunk goes one
// step further for disk chunks: it hands the transport an open handle
// on the chunk's segment file, positioned at the chunk's body, to
// splice (sendfile on TCP) — those bytes never enter user
// space, and in exchange they are not re-verified per read; the
// client's end-to-end digest check and the background scrubber carry
// the integrity guarantee on that path. Pipeline overlaps chunk
// fetches with sends, propagating ownership of unconsumed values to a
// drop callback so cancellation can never leak a pooled buffer.
//
// # Layout
//
// A disk-backed store (Open with a directory) keeps chunk bodies in
// append-only segment files, <dir>/seg-NNNNNNNN. Each record is a
// 40-byte header — the ref, the body size and a CRC-32C of both —
// followed by the body. Appends go to one active segment, which is
// sealed at 64 MiB with one fsync; a fresh segment costs one directory
// fsync. The index maps each ref to its segment and body offset, and
// Open rebuilds it by walking the record headers, reading a body only
// when a ref has a second record. A reopened store appends to its
// newest segment.
//
// Releasing a chunk makes no syscall: its record becomes dead space,
// counted against its segment's live bytes. A background reclaimer,
// started on demand and one at a time, unlinks a sealed segment with
// no live bytes and compacts one that is at most half live: it copies
// the live records, each verified on the way (a corrupt one is
// quarantined instead), to the active segment, fsyncs, repoints the
// index and unlinks the old segment. The segment files therefore hold
// at most twice the live record bytes plus one segment. Capacity
// eviction frees space the same way.
//
// # Durability
//
// Ingest appends each missing body to the active segment as it
// arrives, fsyncs once at the end of the stream (once per segment it
// wrote, if it rolled one) and only then indexes the chunks: a nil
// error means every chunk is durable and indexed, and a failed upload
// indexes nothing. Put and PutPinned append, fsync and index one
// chunk. Appends are ordered under one mutex that is not held across
// the fsync, so concurrent uploads share fsyncs: one covers every
// record written before it. A failed fsync fails every later fsync of
// that segment, which takes no more appends.
//
// A crash can leave a torn record only at the end of the newest
// segment, after every acknowledged one: a segment is fsynced before
// the next is created. Open cuts the newest segment at the first
// header that fails its CRC or whose body runs past the end of the
// file; the same in an older segment is damage, and Open fails naming
// the segment and offset, changing nothing. A record whose header
// survived but whose body did not reads as ErrCorrupt and is
// quarantined, and the next upload of the chunk heals it. A later
// record of a ref (a second upload, or a compaction copy whose source
// a crash kept) supersedes the earlier only if its body verifies, so a
// torn copy never hides an acknowledged one. Orphans from a crash —
// chunks written but never referenced by a durable manifest — are
// reclaimed by Sweep, which object servers run after recovery. A
// directory in the one-file-per-chunk layout of earlier versions fails
// Open and is left untouched.
package store
