package store

import "gdn/internal/obs"

// Registry handles for the content store. The per-instance Stats
// struct remains as a view for tests and experiments; these aggregate
// the same events across every store in the process.
var (
	mPutSeconds = obs.Default.Histogram("gdn_store_put_seconds",
		"chunk insert latency, content hashing, disk write and fsync included",
		obs.Seconds, obs.TimeBuckets)
	mPutBytes = obs.Default.Histogram("gdn_store_put_bytes",
		"chunk sizes entering the store", obs.Bytes, obs.SizeBuckets)
	mGetSeconds = obs.Default.Histogram("gdn_store_get_seconds",
		"chunk read latency, the per-chunk check included",
		obs.Seconds, obs.TimeBuckets)
	mDedup = obs.Default.Counter("gdn_store_dedup_total",
		"puts that found their chunk already present")
	mEvictions = obs.Default.Counter("gdn_store_evictions_total",
		"chunks dropped by the capacity policy")
	mQuarantined = obs.Default.Counter("gdn_store_quarantined_total",
		"chunks a read or the scrubber found corrupt and set aside")
	mRepaired = obs.Default.Counter("gdn_store_repaired_total",
		"quarantined chunks healed by a later put of the same content")
	mScrubbedBytes = obs.Default.Counter("gdn_store_scrubbed_bytes_total",
		"chunk bytes the scrubber has verified against their address")

	// Zero-copy serve counters: how chunk bytes left the store. A
	// zerocopy byte was served by reference to the immutable resident
	// buffer (memory stores); a pooled byte was read from disk into a
	// recycled buffer handed down the stack with an ownership-releasing
	// callback; a file open handed the transport a handle to splice
	// (sendfile) without the bytes entering user space at all.
	mServeZeroCopy = obs.Default.Counter("gdn_store_serve_zerocopy_bytes_total",
		"chunk bytes served by reference with no copy")
	mServePooled = obs.Default.Counter("gdn_store_serve_pooled_bytes_total",
		"chunk bytes read from disk into pooled, ownership-tracked buffers")
	mServeFileOpens = obs.Default.Counter("gdn_store_serve_file_opens_total",
		"segment file handles handed to transports for splicing a chunk")

	// Prefetch pipeline counters: Pipeline fetches chunks ahead of the
	// consumer; a stall means the consumer outran the prefetcher (the
	// window or the backing read is the bottleneck, not the wire).
	mPrefetchFetched = obs.Default.Counter("gdn_store_prefetch_fetched_total",
		"items fetched ahead of their consumer by the prefetch pipeline")
	mPrefetchStalls = obs.Default.Counter("gdn_store_prefetch_stalls_total",
		"times a pipeline consumer had to wait for an in-flight fetch")
)
