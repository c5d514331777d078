package rpc

import "gdn/internal/obs"

// Registry handles for the rpc layer, cached once so the hot path
// never touches the registry map. Dial outcomes cover the transport:
// every connection a client opens goes through Client.dial.
var (
	mCallSeconds = obs.Default.Histogram("gdn_rpc_client_call_seconds",
		"unary call round-trip latency, including queueing and retries",
		obs.Seconds, obs.TimeBuckets)
	mCallErrors = obs.Default.Counter("gdn_rpc_client_call_errors_total",
		"unary calls that returned an error")
	mRetries = obs.Default.Counter("gdn_rpc_client_retries_total",
		"requests a dead connection never sent, redialed within the Retries budget")
	mTimeouts = obs.Default.Counter("gdn_rpc_client_timeouts_total",
		"pending calls expired by the deadline sweeper")

	mDialOK = obs.Default.Counter(`gdn_rpc_dials_total{outcome="ok"}`,
		"transport dials by outcome")
	mDialErr = obs.Default.Counter(`gdn_rpc_dials_total{outcome="err"}`,
		"transport dials by outcome")
	mDialBackoff = obs.Default.Counter(`gdn_rpc_dials_total{outcome="backoff"}`,
		"transport dials by outcome (fast-failed inside the backoff gate)")

	mCondemnedWedged = obs.Default.Counter(`gdn_rpc_conns_condemned_total{cause="wedged"}`,
		"connections condemned after a full silent timeout window")

	mServeSeconds = obs.Default.Histogram("gdn_rpc_server_op_seconds",
		"server-side handler latency per dispatched request",
		obs.Seconds, obs.TimeBuckets)
	mServePanics = obs.Default.Counter("gdn_rpc_server_panics_total",
		"handler panics converted to remote errors")

	// Zero-copy data-plane counters. A vec frame's body reached the
	// transport out of band, never copied into the frame encoder
	// (writev on TCP, one gather into the delivery buffer or sealed
	// record elsewhere). A sendfile frame's bytes were spliced
	// disk→socket by the kernel without entering user space; file
	// sections a transport read into memory (netsim, security
	// channels) are not counted.
	mSendVecFrames = obs.Default.Counter("gdn_rpc_send_vec_frames_total",
		"frames whose payload traveled out of band with no encoder copy")
	mSendVecBytes = obs.Default.Counter("gdn_rpc_send_vec_bytes_total",
		"payload bytes handed to the transport without an encoder copy")
	mSendSendfileFrames = obs.Default.Counter("gdn_rpc_send_sendfile_frames_total",
		"file-backed frames spliced by the kernel (sendfile on TCP)")
	mSendSendfileBytes = obs.Default.Counter("gdn_rpc_send_sendfile_bytes_total",
		"payload bytes spliced from files by the kernel")
)
