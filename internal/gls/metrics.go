package gls

import "gdn/internal/obs"

// Registry handles for the location service. The per-node Counters
// struct remains the per-instance view; these aggregate across every
// directory subnode in the process, and the histograms give the
// latency distributions the 1M-object scaling work needs (ROADMAP).
var (
	mResolverLookupSeconds = obs.Default.Histogram("gdn_gls_resolver_lookup_seconds",
		"client-observed lookup latency at the resolver",
		obs.Seconds, obs.TimeBuckets)
	mSessionRenewSeconds = obs.Default.Histogram("gdn_gls_session_renew_seconds",
		"server-session renewal round latency (all leaf subnodes)",
		obs.Seconds, obs.TimeBuckets)
	mSessionsOpened = obs.Default.Counter("gdn_gls_sessions_opened_total",
		"registration sessions opened or refreshed at directory nodes")
	mSessionsClosed = obs.Default.Counter("gdn_gls_sessions_closed_total",
		"registration sessions closed explicitly by their server")
	mSessionsExpired = obs.Default.Counter("gdn_gls_sessions_expired_total",
		"registration sessions reaped by the lease sweeper")
	mSnapshotAppendSeconds = obs.Default.Histogram("gdn_gls_snapshot_append_seconds",
		"state-table flush latency: one batched append write plus fsync",
		obs.Seconds, obs.TimeBuckets)
	mLogBytesTotal = obs.Default.Counter("gdn_gls_log_bytes_total",
		"bytes appended to GLS state tables across all subnodes")
)

// LookupLatency and RenewLatency expose the resolver-side latency
// histograms; benchmarks read quantiles from these snapshots instead
// of re-deriving timings.
func LookupLatency() obs.HistogramSnapshot { return mResolverLookupSeconds.Snapshot() }

// RenewLatency is the renewal-round counterpart of LookupLatency.
func RenewLatency() obs.HistogramSnapshot { return mSessionRenewSeconds.Snapshot() }

// opNames maps directory-node protocol ops to the label values of the
// gdn_gls_op_seconds histogram family.
var opNames = map[uint16]string{
	OpLookup:          "lookup",
	OpLookupDown:      "lookup_down",
	OpInsert:          "insert",
	OpDelete:          "delete",
	OpInstallPtr:      "install_ptr",
	OpRemovePtr:       "remove_ptr",
	OpSessionOpen:     "session_open",
	OpSessionRenew:    "session_renew",
	OpSessionClose:    "session_close",
	OpSessionReattach: "session_reattach",
}

// mOpSeconds holds one histogram per known op, keyed by op code, so
// the hot handle path is a map read plus an atomic observe.
var mOpSeconds = func() map[uint16]*obs.Histogram {
	m := make(map[uint16]*obs.Histogram, len(opNames))
	for op, name := range opNames {
		m[op] = obs.Default.Histogram(
			"gdn_gls_op_seconds{op=\""+name+"\"}",
			"directory-node operation service time by op",
			obs.Seconds, obs.TimeBuckets)
	}
	return m
}()
