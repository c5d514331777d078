package rpc

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gdn/internal/transport"
	"gdn/internal/wire"
)

// Streaming call shape: a call whose response arrives as a sequence
// of body frames over the shared multiplexed connection, so a bulk
// transfer (a package file flowing out of a GDN object server) never
// materializes as one giant frame and peak buffering stays O(chunk).
//
// Wire shape. A streaming call is an ordinary request frame; the
// server answers with zero or more data frames (response frames with
// status 2) followed by exactly one final frame (status 0 or 1,
// whose body is the stream's trailer). Data frames for concurrent
// streams interleave freely on the connection; the request ID routes
// each to its caller.
//
// Flow control. The server may have streamWindow data frames
// outstanding; each further frame needs credit. The client grants
// credit as its application consumes frames, with a reserved-op
// request frame (opStreamAck) carrying the consumed count. A slow
// reader therefore stalls its own stream — not the connection, whose
// other calls keep flowing — and buffering per stream is bounded by
// the window. A client that abandons a stream sends opStreamCancel,
// which unblocks the server-side writer with ErrStreamCanceled.

// Reserved operation codes, carried in request frames but consumed by
// the RPC layer itself. Services must not register handlers for ops
// at or above opReserved. (The upload-stream codes opUploadOpen/Data/
// End live in upload.go; opStreamCancel is shared by both stream
// directions — a request ID is only ever one kind of stream.)
const (
	opReserved     uint16 = 0xFF00
	opStreamAck    uint16 = 0xFFFF
	opStreamCancel uint16 = 0xFFFE
)

// Response status codes. statusCredit frames carry upload flow-control
// grants (upload.go); like statusStream frames they never complete the
// call.
const (
	statusOK     uint8 = 0
	statusErr    uint8 = 1
	statusStream uint8 = 2
	statusCredit uint8 = 3
)

// streamWindow is the number of data frames a server may have
// unacknowledged per stream. With chunk-sized frames it bounds
// per-stream buffering to a few megabytes while keeping a wide-area
// pipe full.
const streamWindow = 16

// maxConnStreams bounds the concurrently open response streams per
// connection to half the handler-worker cap. A stream whose client
// stalls parks its worker in Send awaiting credit; if stalled streams
// could take every worker, the read loop would block handing off the
// next request and never reach the credit/cancel frames that free
// them — a deadlock. Keeping half the pool stream-free guarantees
// the loop keeps draining.
const maxConnStreams = maxConnRequests / 2

// ErrTooManyStreams rejects opening a stream beyond the per-connection
// cap; it reaches the caller as a remote error on the stream call.
var ErrTooManyStreams = errors.New("rpc: too many concurrent streams on this connection")

// ErrStreamCanceled is returned by StreamWriter.Send after the client
// abandoned the stream.
var ErrStreamCanceled = errors.New("rpc: stream canceled by caller")

// errNotStreamable is returned by Call.OpenStream outside a served
// connection.
var errNotStreamable = errors.New("rpc: call cannot stream (no serving connection)")

// --- server side ------------------------------------------------------

// streamTable tracks the open response streams of one server
// connection, routing credit and cancel frames to their writers.
type streamTable struct {
	sender *connSender

	// n mirrors len(m) so the per-request cleanup probe on the unary
	// hot path is one atomic load, not a mutex acquisition.
	n atomic.Int32

	mu     sync.Mutex
	m      map[uint64]*StreamWriter
	closed bool
}

func newStreamTable(sender *connSender) *streamTable {
	return &streamTable{sender: sender, m: make(map[uint64]*StreamWriter)}
}

// open registers a stream for one request ID.
func (t *streamTable) open(id uint64) (*StreamWriter, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, transport.ErrClosed
	}
	if sw, ok := t.m[id]; ok {
		return sw, nil
	}
	if len(t.m) >= maxConnStreams {
		return nil, ErrTooManyStreams
	}
	sw := &StreamWriter{table: t, id: id, credits: streamWindow}
	sw.cond = sync.NewCond(&sw.mu)
	t.m[id] = sw
	t.n.Store(int32(len(t.m)))
	return sw, nil
}

// take removes a stream when its handler completes, returning it (nil
// if the handler never opened one). A handler's own open happened on
// the same goroutine, so the lock-free empty probe cannot miss it.
func (t *streamTable) take(id uint64) *StreamWriter {
	if t.n.Load() == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sw := t.m[id]
	delete(t.m, id)
	t.n.Store(int32(len(t.m)))
	return sw
}

// ack adds credit to a stream.
func (t *streamTable) ack(id uint64, n uint32) {
	t.mu.Lock()
	sw := t.m[id]
	t.mu.Unlock()
	if sw == nil {
		return // stream already finished; late ack is harmless
	}
	sw.mu.Lock()
	sw.credits += int(n)
	sw.mu.Unlock()
	sw.cond.Broadcast()
}

// cancel aborts a stream on the client's request.
func (t *streamTable) cancel(id uint64) {
	t.mu.Lock()
	sw := t.m[id]
	t.mu.Unlock()
	if sw != nil {
		sw.abort(ErrStreamCanceled)
	}
}

// closeAll aborts every stream when the connection dies, so no
// handler stays blocked waiting for credit that can never arrive.
func (t *streamTable) closeAll(err error) {
	t.mu.Lock()
	t.closed = true
	streams := make([]*StreamWriter, 0, len(t.m))
	for _, sw := range t.m {
		streams = append(streams, sw)
	}
	t.m = make(map[uint64]*StreamWriter)
	t.n.Store(0)
	t.mu.Unlock()
	for _, sw := range streams {
		sw.abort(err)
	}
}

// StreamWriter is the server half of a streaming call: the handler
// sends data frames through it, then returns normally; the handler's
// return value becomes the stream's trailer. Send applies the
// window's backpressure, so a handler streaming a large file holds
// only one chunk at a time regardless of how slow the client reads.
type StreamWriter struct {
	table *streamTable
	id    uint64

	mu      sync.Mutex
	cond    *sync.Cond
	credits int
	err     error
}

// acquireCredit blocks until the flow-control window has room, and
// fails once the client cancels or the connection dies.
func (sw *StreamWriter) acquireCredit() error {
	sw.mu.Lock()
	for sw.credits == 0 && sw.err == nil {
		sw.cond.Wait()
	}
	if sw.err != nil {
		sw.mu.Unlock()
		return sw.err
	}
	sw.credits--
	sw.mu.Unlock()
	return nil
}

// Send transmits one data frame, blocking while the flow-control
// window is exhausted. It fails once the client cancels or the
// connection dies. The body is copied; the caller keeps ownership of
// p. Handlers on the bulk hot path use SendOwned instead.
func (sw *StreamWriter) Send(p []byte) error {
	if err := sw.acquireCredit(); err != nil {
		return err
	}
	w := wireStreamFrame(sw.id, p)
	if err := w.Err(); err != nil {
		w.Free()
		return err
	}
	sw.table.sender.enqueue(w)
	return nil
}

// SendOwned transmits one data frame whose body travels out of band:
// ownership of p passes to the send path, which calls release (nil is
// allowed) exactly once — after the frame has been written to the
// transport, or when it is dropped because the stream or connection
// died. The body is never copied into the frame encoder; only a
// ~27-byte header is built here, and on TCP the body goes out in the
// same writev as that header. This is the explicit buffer-ownership
// handoff that lets the store's chunk buffers reach the wire without
// intermediate re-copies.
func (sw *StreamWriter) SendOwned(p []byte, release func()) error {
	if err := sw.acquireCredit(); err != nil {
		if release != nil {
			release()
		}
		return err
	}
	w := wireStreamHeader(sw.id, len(p))
	if err := w.Err(); err != nil {
		w.Free()
		if release != nil {
			release()
		}
		return err
	}
	sw.table.sender.enqueueOut(outFrame{w: w, body: p, release: release})
	return nil
}

// SendFile transmits one data frame of n bytes read from f's current
// offset. Ownership of the handle passes to the send path; release
// (typically closing f) is called exactly once after the bytes are on
// the wire or the frame is dropped. On plain TCP the file section is
// spliced with sendfile(2), so resident disk chunks are served without
// their bytes ever entering user space.
func (sw *StreamWriter) SendFile(f *os.File, n int64, release func()) error {
	if err := sw.acquireCredit(); err != nil {
		if release != nil {
			release()
		}
		return err
	}
	w := wireStreamHeader(sw.id, int(n))
	if err := w.Err(); err != nil {
		w.Free()
		if release != nil {
			release()
		}
		return err
	}
	sw.table.sender.enqueueOut(outFrame{w: w, file: f, fileN: n, release: release})
	return nil
}

// abort fails the stream; Send returns err from then on.
func (sw *StreamWriter) abort(err error) {
	sw.mu.Lock()
	if sw.err == nil {
		sw.err = err
	}
	sw.mu.Unlock()
	sw.cond.Broadcast()
}

// wireStreamFrame encodes one data frame in a pooled writer.
func wireStreamFrame(id uint64, body []byte) *wire.Writer {
	w := wire.GetWriter(24 + len(body))
	w.Uint64(id)
	w.Uint8(statusStream)
	w.Str("")
	w.Int64(0)
	w.Bytes32(body)
	return w
}

// wireStreamHeader encodes a data frame's header only — everything up
// to and including the body's length prefix — for a body of n bytes
// that travels out of band. Concatenated with the body it is
// byte-identical to wireStreamFrame's output, so receivers cannot tell
// the paths apart.
func wireStreamHeader(id uint64, n int) *wire.Writer {
	w := wire.GetWriter(32)
	w.Uint64(id)
	w.Uint8(statusStream)
	w.Str("")
	w.Int64(0)
	w.Bytes32Prefix(n)
	return w
}

// --- client side ------------------------------------------------------

// streamEvent is one delivery from the demux goroutine to a stream's
// reader: a data frame, or the final result.
type streamEvent struct {
	data  []byte // one data frame's body (aliases frame)
	frame []byte // backing receive buffer, recycled after consumption
	cost  time.Duration
	final bool
	resp  []byte // trailer (final only)
	err   error  // remote or transport error (final only)
}

// Stream is the client half of a streaming call. Exactly one
// goroutine may call Recv; Close may be called at any time.
type Stream struct {
	mc *muxConn
	id uint64

	events chan streamEvent

	mu       sync.Mutex
	consumed int
	prev     []byte
	trailer  []byte
	cost     time.Duration
	finished bool
	closed   bool
}

// Recv returns the next data frame and its virtual network cost. It
// returns io.EOF once the stream completed, after which Trailer holds
// the final response body. The returned slice is valid only until the
// next Recv or Close call — the buffer is recycled.
func (st *Stream) Recv() ([]byte, time.Duration, error) {
	st.mu.Lock()
	if st.prev != nil {
		transport.PutFrame(st.prev)
		st.prev = nil
	}
	if st.finished || st.closed {
		st.mu.Unlock()
		return nil, 0, io.EOF
	}
	st.mu.Unlock()

	ev := <-st.events
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cost += ev.cost
	if ev.final {
		st.finished = true
		st.trailer = ev.resp
		if ev.err != nil {
			return nil, ev.cost, ev.err
		}
		return nil, ev.cost, io.EOF
	}
	st.consumed++
	if st.consumed >= streamWindow/2 {
		st.mc.sendCredit(st.id, uint32(st.consumed))
		st.consumed = 0
	}
	// Consuming a frame is progress: keep the idle timeout from firing
	// on a reader that is slower than the buffered window.
	st.mc.touchStream(st.id)
	st.prev = ev.frame
	return ev.data, ev.cost, nil
}

// Trailer returns the final response body after Recv returned io.EOF.
func (st *Stream) Trailer() []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.trailer
}

// Cost returns the accumulated virtual network cost of every frame
// received so far (including the final frame's server-side cost).
func (st *Stream) Cost() time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cost
}

// Close releases the stream. If the stream has not completed, the
// server is told to stop sending, and a Recv blocked in another
// goroutine is woken with ErrStreamCanceled.
func (st *Stream) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	if st.prev != nil {
		transport.PutFrame(st.prev)
		st.prev = nil
	}
	finished := st.finished
	st.mu.Unlock()

	if !finished {
		st.mc.cancelStream(st.id)
		// A concurrent Recv may be parked on the events channel with no
		// further deliveries coming (the pending entry is gone). Wake
		// it; if nothing is parked, the sentinel is reaped by the drain
		// below or ignored by later Recv calls via st.closed.
		st.deliver(streamEvent{final: true, err: ErrStreamCanceled})
	}
	// Recycle any frames the demux goroutine had buffered.
	for {
		select {
		case ev := <-st.events:
			if ev.frame != nil {
				transport.PutFrame(ev.frame)
			}
		default:
			return nil
		}
	}
}

// deliver hands one event to the reader. It must never block the
// demux goroutine: capacity covers the flow-control window plus the
// final frame plus one failure event, so an overflow means the peer
// overran its window.
func (st *Stream) deliver(ev streamEvent) bool {
	select {
	case st.events <- ev:
		return true
	default:
		return false
	}
}

func decodeAck(body []byte) (uint32, error) {
	if len(body) != 4 {
		return 0, fmt.Errorf("rpc: malformed stream ack (%d bytes)", len(body))
	}
	return uint32(body[0])<<24 | uint32(body[1])<<16 | uint32(body[2])<<8 | uint32(body[3]), nil
}

func encodeAckBody(n uint32) [4]byte {
	return [4]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
}
