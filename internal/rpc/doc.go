// Package rpc implements the request/response protocol every Globe
// service in this repository speaks: location-service directory nodes,
// object servers, replication peers and naming authorities.
//
// Messages are opaque bodies tagged with an operation code, matching the
// paper's model of subobjects that exchange "opaque invocation messages"
// (§3.3). The one Globe-specific feature is virtual cost propagation:
// a server accumulates the simulated network cost of the nested calls it
// makes on behalf of a request and reports it in the response, so a
// client's Call returns the cost of the entire dependent call tree. This
// is how experiments measure, for example, that a location-service
// lookup costs time proportional to the distance between client and
// nearest replica (paper §3.5) without any real sleeping.
//
// # Multiplexed framing
//
// Calls are multiplexed: one shared connection per remote carries many
// in-flight requests, identified by a per-connection 64-bit request ID.
// The frame layouts are
//
//	request:  id uint64 | op uint16 | body bytes32
//	response: id uint64 | status uint8 | errmsg str16 | cost int64 | body bytes32
//
// all encoded with package wire. A client sends requests from any number
// of goroutines; a single demux goroutine per connection receives
// responses and routes each to the waiting caller recorded in the
// pending-call table. The table is striped (request IDs are sequential,
// so id mod stripes balances perfectly); call timeouts are deadlines on
// the stripes, swept by one timer per stripe armed for its earliest
// deadline — not a goroutine plus timer per call. The server reads
// requests in one loop and dispatches each to its own (bounded) handler
// goroutine, so slow requests do not head-of-line block pipelined ones
// and responses may complete out of order; the request ID pairs them
// back up. Virtual frame costs ride the same tables: the cost of each
// request frame is charged to that request's response, and the response
// frame's own cost is added by the demux goroutine before the caller is
// woken.
//
// # Credit window
//
// Streaming responses (and uploads, symmetrically) are flow controlled
// by credits, never by trusting TCP backpressure: a stream may send
// streamWindow data frames before it must park waiting for the receiver
// to acknowledge consumption with a credit frame (opStreamAck). The
// invariant is that at most streamWindow frames are in flight per
// stream, so a slow consumer bounds the memory a fast producer can pin
// at one window — on a connection shared by many calls, one stalled
// download cannot balloon the process or starve unrelated requests.
// Cancellation (opStreamCancel) and call timeout release a parked
// producer; a receiver that overruns its advertised window condemns the
// connection, because a peer that ignores flow control is broken.
//
// # Buffer ownership on the send path
//
// StreamWriter.Send copies: the caller keeps its buffer, the stream
// takes a private copy, and nothing needs coordinating. The zero-copy
// variants make ownership explicit instead:
//
//   - SendOwned(p, release) transfers ownership of p to the stream. The
//     bytes travel header-and-body as separate parts of one
//     transport.Frame (writev on TCP; one gather into the delivery
//     buffer or sealed record elsewhere), and release fires exactly
//     once, at write completion — or on any failure path that means
//     the write will never happen (connection death, credit abort,
//     encode error).
//     Callers hand the released buffer back to its pool there, so one
//     chunk buffer flows store→rpc→wire with no intermediate copy.
//   - SendFile(f, n, release) transfers an open file's next n bytes.
//     Plain TCP splices them (sendfile(2)) so the payload never enters
//     user space; security channels and the simulated network read
//     them once, straight into the buffer they seal or deliver. release
//     closes the file under the same exactly-once contract.
//
// The sender's queue honours the same contract for every frame it ever
// held: on connection failure each queued frame's release fires as the
// queue drains. Nothing in the protocol distinguishes the paths — a
// copied, owned, or spliced frame is byte-identical on the wire.
package rpc
