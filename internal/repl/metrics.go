package repl

import "gdn/internal/obs"

// Registry handles for the replication layer. The per-instance
// CacheStats accessors remain as views for tests; these aggregate the
// same events across every replica in the process.
var (
	mCacheHits = obs.Default.Counter("gdn_repl_cache_hits_total",
		"cache reads served inside the TTL or subscription window")
	mCacheMisses = obs.Default.Counter("gdn_repl_cache_misses_total",
		"cache reads that pulled state from a parent")
	mCacheRevalidations = obs.Default.Counter("gdn_repl_cache_revalidations_total",
		"cache freshness checks answered not-modified by a parent")
	mInvalidations = obs.Default.Counter("gdn_repl_invalidations_total",
		"OpInvalidate messages accepted by caches and slaves")
	mFillChunks = obs.Default.Counter("gdn_repl_fill_chunks_total",
		"chunks pulled from a parent during delta state transfer")
	mFillBytes = obs.Default.Counter("gdn_repl_fill_bytes_total",
		"chunk bytes pulled from a parent during delta state transfer")
	mVerifySHA = obs.Default.Counter(`gdn_repl_verify_bytes_total{check="sha256"}`,
		"bytes a proxy checked on remote whole reads, by check")
	mVerifyCRC = obs.Default.Counter(`gdn_repl_verify_bytes_total{check="crc32c"}`,
		"bytes a proxy checked on remote whole reads, by check")
)
