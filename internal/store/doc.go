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
// # Ownership
//
// Chunks are reference counted. Retain pins a chunk on behalf of a
// manifest that names it (a package file, a tagged version, an object
// server's on-disk checkpoint); Release drops the pin. What happens
// when the count reaches zero depends on the store's mode:
//
//   - plain stores delete the chunk immediately — the store holds
//     exactly the content live manifests reference;
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
// step further for disk chunks: it hands the transport an open file
// handle to splice (sendfile on TCP) — those bytes never enter user
// space, and in exchange they are not re-verified per read; the
// client's end-to-end digest check and the background scrubber carry
// the integrity guarantee on that path. Pipeline overlaps chunk
// fetches with sends, propagating ownership of unconsumed values to a
// drop callback so cancellation can never leak a pooled buffer.
//
// # Durability
//
// A disk-backed store (Open with a directory) writes each chunk to a
// temporary file, fsyncs it, and renames it into place, so a crash
// leaves either the whole chunk or nothing. Ingest, which stores an
// upload stream, overlaps those fsyncs across a few goroutines but
// returns only once every chunk is renamed, its directory fsynced and
// the chunk indexed; a crash before that leaves temporary files, which
// Open deletes. Orphans from a crash —
// chunks written but never referenced by a durable manifest — are
// reclaimed by Sweep, which object servers run after recovery.
package store
