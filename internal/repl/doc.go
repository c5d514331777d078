// Package repl implements Globe's replication subobjects: the
// interchangeable protocols that keep the state of a distributed shared
// object's representatives consistent (paper §3.3). Each protocol
// provides a proxy side (installed in binding clients) and a replica
// side (hosted by object servers and GDN HTTPDs), both implementing the
// standard core.Replication interface over opaque invocations.
//
// The protocols:
//
//   - "clientserver": one server replica holds the state; proxies
//     forward every invocation to it. One of the two protocols the
//     paper ships (§7).
//   - "masterslave": a master accepts writes and synchronously pushes
//     full state to slave replicas, which serve reads near clients. The
//     paper's second shipped protocol (§7).
//   - "active": writes are ordered by a sequencer replica and applied
//     at every peer; reads are local at any peer. The "actively
//     replicate all the state at all the local representatives"
//     strategy of §3.3.
//   - "cache": a pull-based replica for GDN proxy servers: it fills
//     from a parent replica on demand and serves reads locally, with
//     either TTL expiry or server-sent invalidations — the two
//     coherence options the differentiated-replication study needs.
//
// A note on consistency semantics: "masterslave" pushes state
// synchronously before acknowledging a write, so reads at any slave
// after a write acknowledges see that write (the strong setting the
// GDN wants for software integrity). "cache" serves stale reads up to
// its TTL, which is the trade-off the E4 experiment quantifies.
//
// # The bulk read path
//
// OpBulkRead streams one file's byte range as chunk-sized frames. The
// serving side plans the transfer with Manifest.ChunkRange and runs it
// through store.Pipeline, fetching a few chunks ahead of the wire so
// storage latency overlaps send latency. Each fetched chunk is handed
// to the RPC stream without copying: disk chunks go down as open file
// handles (spliced by the transport) or pooled buffers released at
// write completion, memory chunks by reference. The manifest's chunks
// are retained for the stream's duration, so eviction or a concurrent
// write cannot yank bytes mid-transfer; the pins may be released while
// final frames still sit in the sender's queue, which is safe — queued
// buffers are owned by the queue, and an unlinked chunk file stays
// readable through its open handle.
//
// Every stream opens with a head frame, sent before the first content
// byte, and closes with a trailer; both state the file's size and
// digest. Failover (streamBulkVia) retries a died stream on the next
// peer at the byte offset already delivered to the consumer. The
// retry re-plans spans from that offset — including a partial first
// chunk — so the consumer sees one uninterrupted byte sequence, no
// duplicates and no gaps, regardless of where the previous stream
// stopped or how far its server-side prefetch window had run ahead. A
// retry whose head names another digest than the first stream's fails
// at once with core.ErrDigestMismatch, before any of its bytes flow.
// Consumer errors are terminal (core.NoFailover): retrying elsewhere
// would replay bytes the consumer already took.
//
// A whole-item read is checked as it flows, one check across every
// resume: a serving replica splices disk chunks unread, so the
// proxy's check is what catches bytes changed on a replica's disk.
// CRC-32C runs on every whole read. The first whole read of a digest
// also runs SHA-256 and, when that matches, records the content's CRC
// in the proxy's verify memo (at most 256 digests, freed on Close).
// Later whole reads of the digest skip SHA-256 and pass only if the
// size and the CRC match; the digest names the content, so its CRC
// holds whichever replica serves it. Either way a failed check is
// reported after every byte was delivered, and the memo never learns
// from one. Representatives holding the content (replicas and caches)
// read through core.LocalExec.ReadBulk instead, which hashes once per
// manifest and then relies on the store's per-chunk checks.
//
// # The chunk upload path
//
// A manifest-bearing write (pkgobj's UploadFile) first makes its
// content chunks present through core.ChunkNegotiator.PutChunks, which
// every proxy implements with the one client, core.PutChunks: an
// OpChunkHave negotiation, then the missing bodies over one OpChunkPut
// upload stream. The shared proxy runs it once through any candidate,
// since slaves and caches relay both ops to the store that manifest
// writes read; the active proxy fetches the roster once and runs it
// against every replica, so each is shipped exactly its own gap.
// Replicas serve both ops with core.ServeChunkHave and
// core.ServeChunkPut behind their own write authorization.
//
// Cache fills ride the same pipeline shape: OpChunkGet batches are
// fetched one request ahead of the verify-and-store consumer, and
// every chunk is re-hashed by PutPinned before it lands, so a corrupt
// or hostile parent cannot poison a downstream store.
package repl
