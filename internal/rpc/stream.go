package rpc

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gdn/internal/obs"
	"gdn/internal/transport"
	"gdn/internal/wire"
)

// Streams carry a call's data as a sequence of bounded frames, in
// either direction: a response stream from server to client (a package
// file flowing out of an object server), an upload from client to
// server (a moderator deploying chunks). One protocol serves both, with
// a sending half and a receiving half; doc.go describes the frames.

// Reserved operation codes, carried in request frames but consumed by
// the RPC layer itself. Services must not register handlers for ops at
// or above opReserved. opStreamAck and opStreamCancel serve both
// directions.
const (
	opReserved     uint16 = 0xFF00
	opUploadEnd    uint16 = 0xFFFB
	opUploadData   uint16 = 0xFFFC
	opUploadOpen   uint16 = 0xFFFD
	opStreamCancel uint16 = 0xFFFE
	opStreamAck    uint16 = 0xFFFF
)

// Response status codes. statusStream (response stream data) and
// statusCredit (upload credit) frames never complete the call.
const (
	statusOK     uint8 = 0
	statusErr    uint8 = 1
	statusStream uint8 = 2
	statusCredit uint8 = 3
)

// streamWindow is the number of data frames a sender may have
// unacknowledged per stream. With chunk-sized frames it bounds
// per-stream buffering to a few megabytes while keeping a wide-area
// pipe full.
const streamWindow = 16

// maxConnStreams bounds the open streams per connection, both
// directions together, to half the handler-worker cap. A stream parks
// its handler's worker: in Send awaiting credit when the client stops
// reading a response stream, in Recv awaiting data when the client
// stops feeding an upload. If parked workers could take every worker,
// the read loop would block handing off the next request and never
// reach the credit, data and cancel frames that free them — a
// deadlock. Keeping half the pool stream-free guarantees the loop
// keeps draining.
const maxConnStreams = maxConnRequests / 2

// ErrTooManyStreams rejects opening a stream, in either direction,
// beyond the per-connection cap; it reaches the caller as a remote
// error on the call.
var ErrTooManyStreams = errors.New("rpc: too many concurrent streams on this connection")

// ErrStreamCanceled is returned by a stream's Send or Recv after the
// other side abandoned it.
var ErrStreamCanceled = errors.New("rpc: stream canceled by caller")

var (
	// errNotStreamable is returned by Call.OpenStream outside a served
	// connection, or on an upload call.
	errNotStreamable = errors.New("rpc: call cannot stream (no serving connection, or an upload)")
	// errUploadFinished fails Send after the server already answered
	// the upload; CloseAndRecv returns the authoritative result.
	errUploadFinished = errors.New("rpc: server closed the upload; result available")
	// errStreamIDInUse condemns a connection whose peer opened a second
	// stream under a live request ID.
	errStreamIDInUse = errors.New("rpc: stream opened under a request ID already streaming")
)

func errReservedOp(op uint16) error {
	return fmt.Errorf("rpc: op %#x is reserved for the protocol", op)
}

// --- the two halves ---------------------------------------------------

// sendHalf is the sending role of a stream, whichever way it flows: a
// StreamWriter on the server, an UploadStream on the client. Up to
// streamWindow data frames may be unacknowledged; a further one waits
// for the receiver's credit. Every send fails once the stream aborts.
type sendHalf struct {
	sender *connSender
	id     uint64

	mu      sync.Mutex
	cond    sync.Cond
	credits int
	err     error
}

func (s *sendHalf) init(sender *connSender) {
	s.sender, s.credits, s.cond.L = sender, streamWindow, &s.mu
}

// acquire takes one credit, waiting while the window is exhausted. It
// fails once the stream aborts. Senders encode a frame only after it,
// so a sender parked on the window holds no frame buffer.
func (s *sendHalf) acquire() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.credits == 0 && s.err == nil {
		s.cond.Wait()
	}
	if s.err != nil {
		return s.err
	}
	s.credits--
	return nil
}

// queue hands one data frame, its credit acquired, to the sender, which
// owns it from here; a frame that failed to encode is released at once.
func (s *sendHalf) queue(f outFrame) error {
	if err := f.w.Err(); err != nil {
		f.done()
		return err
	}
	s.sender.enqueueOut(f)
	return nil
}

// grant adds n credits, on the receiver's acknowledgement.
func (s *sendHalf) grant(n uint32) {
	s.mu.Lock()
	s.credits += int(n)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// abort fails the stream; sends return the first abort's err from then
// on.
func (s *sendHalf) abort(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// streamEvent is one delivery to a receiving half: a data frame, or the
// final event — the end of the data (with the trailer, on a response
// stream) or a failure.
type streamEvent struct {
	data  []byte // one data frame's body (aliases frame)
	frame []byte // backing receive buffer, recycled after consumption
	cost  time.Duration
	final bool
	resp  []byte // trailer (final only)
	err   error  // remote, transport or abort error (final only)
}

// recvHalf is the receiving role of a stream, whichever way it flows: a
// Stream on the client, an UploadReader on the server. The connection's
// read loop queues events without ever blocking: the queue holds the
// window plus the final event plus one abort, so a full queue means the
// peer overran its window. Each half window consumed grants the sender
// that much credit, through the credit encoder of the stream's
// direction. One goroutine receives; shut and abort may come from any.
type recvHalf struct {
	sender  *connSender
	id      uint64
	credit  func(id uint64, n uint32) *wire.Writer
	events  chan streamEvent
	aborted atomic.Bool // at most one abort event is ever queued

	mu       sync.Mutex
	consumed int
	prev     []byte
	cost     time.Duration
	trailer  []byte
	finished bool // the final event was received
	closed   bool
}

func (q *recvHalf) init(sender *connSender, credit func(uint64, uint32) *wire.Writer) {
	q.sender, q.credit = sender, credit
	q.events = make(chan streamEvent, streamWindow+2)
}

// recv returns the next data frame and its virtual cost; after the
// final event it returns the stream's failure or io.EOF. The frame is
// valid until the next recv, shut or drain — the buffer is recycled.
func (q *recvHalf) recv() ([]byte, time.Duration, error) {
	q.mu.Lock()
	q.recycleLocked()
	over := q.finished || q.closed
	q.mu.Unlock()
	if over {
		return nil, 0, io.EOF
	}
	ev := <-q.events
	q.mu.Lock()
	q.cost += ev.cost
	if ev.final {
		q.finished = true
		q.trailer = ev.resp
		q.mu.Unlock()
		return nil, ev.cost, cmp.Or(ev.err, io.EOF)
	}
	q.prev = ev.frame
	var grant uint32
	if q.consumed++; q.consumed >= streamWindow/2 {
		grant, q.consumed = uint32(q.consumed), 0
	}
	q.mu.Unlock()
	if grant > 0 {
		q.sender.enqueue(q.credit(q.id, grant))
	}
	return ev.data, ev.cost, nil
}

// deliver queues one event without blocking, reporting false when the
// queue is full.
func (q *recvHalf) deliver(ev streamEvent) bool {
	select {
	case q.events <- ev:
		return true
	default:
		return false
	}
}

// abort queues a final failure event, once: it wakes a parked recv, or
// is what the next recv returns.
func (q *recvHalf) abort(err error) {
	if !q.aborted.Swap(true) {
		q.deliver(streamEvent{final: true, err: err})
	}
}

// shut closes the receiving side: recv returns io.EOF from then on. It
// reports whether the stream was still live (neither finished nor shut).
func (q *recvHalf) shut() (live bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.recycleLocked()
	live = !q.finished && !q.closed
	q.closed = true
	return live
}

// drain recycles the current frame and every queued one, and returns
// the virtual cost of everything received, consumed or not.
func (q *recvHalf) drain() time.Duration {
	q.mu.Lock()
	q.recycleLocked()
	cost := q.cost
	q.mu.Unlock()
	for {
		select {
		case ev := <-q.events:
			cost += ev.cost
			if ev.frame != nil {
				transport.PutFrame(ev.frame)
			}
		default:
			return cost
		}
	}
}

func (q *recvHalf) recycleLocked() {
	if q.prev != nil {
		transport.PutFrame(q.prev)
		q.prev = nil
	}
}

// --- server side ------------------------------------------------------

// serverStream is one open stream of a server connection: the handler's
// StreamWriter for a response stream, its UploadReader for an upload.
type serverStream struct {
	w *StreamWriter
	r *UploadReader
}

func (s serverStream) abort(err error) {
	if s.w != nil {
		s.w.abort(err)
	}
	if s.r != nil {
		s.r.abort(err)
	}
}

// streamTable tracks the open streams of one server connection, in
// both directions, routing credit, data, end and cancel frames to them.
type streamTable struct {
	sender *connSender

	mu     sync.Mutex
	m      map[uint64]serverStream
	closed bool
}

// open registers a stream under its request ID. A full table refuses
// it with ErrTooManyStreams. An ID that already names a live stream
// condemns the connection, as a window overrun does: the peer is
// broken, and the older stream must stay reachable so that teardown
// releases its handler.
func (t *streamTable) open(id uint64, s serverStream) error {
	var err error
	t.mu.Lock()
	switch _, dup := t.m[id]; {
	case t.closed:
		err = transport.ErrClosed
	case dup:
		err = errStreamIDInUse
	case len(t.m) >= maxConnStreams:
		err = ErrTooManyStreams
	default:
		t.m[id] = s
	}
	t.mu.Unlock()
	if err == errStreamIDInUse {
		t.sender.fail(err) // closes the connection; the read loop ends
	}
	return err
}

// lookup returns the stream open under id (zero if none).
func (t *streamTable) lookup(id uint64) serverStream {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[id]
}

// remove unlinks the stream a finished handler's request opened — that
// stream only, so a request reusing a live ID cannot orphan another's.
func (t *streamTable) remove(id uint64, s serverStream) {
	t.mu.Lock()
	if t.m[id] == s {
		delete(t.m, id)
	}
	t.mu.Unlock()
}

// deliver routes one event to an upload's reader. The queue send
// happens under the table lock, so once remove has unlinked the reader
// no further events can race its drain. overrun reports a full queue;
// events for no open upload are refused without it.
func (t *streamTable) deliver(id uint64, ev streamEvent) (accepted, overrun bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ur := t.m[id].r
	if ur == nil {
		return false, false
	}
	accepted = ur.deliver(ev)
	return accepted, !accepted
}

// closeAll aborts every stream when the connection dies, so no handler
// stays parked on credit or data that can never arrive.
func (t *streamTable) closeAll(err error) {
	t.mu.Lock()
	t.closed = true
	m := t.m
	t.m = nil
	t.mu.Unlock()
	for _, s := range m {
		s.abort(err)
	}
}

// StreamWriter is the server half of a response stream: the handler
// sends data frames through it, then returns normally; the handler's
// return value becomes the stream's trailer. Sends apply the window's
// backpressure, so a handler streaming a large file holds only one
// chunk at a time regardless of how slow the client reads.
type StreamWriter struct{ sendHalf }

// Send transmits one data frame, blocking while the flow-control
// window is exhausted. It fails once the client cancels or the
// connection dies. The body is copied; the caller keeps ownership of
// p. Handlers on the bulk hot path use SendOwned instead.
func (sw *StreamWriter) Send(p []byte) error {
	if err := sw.acquire(); err != nil {
		return err
	}
	return sw.queue(outFrame{w: responseFrame(sw.id, statusStream, "", 0, p)})
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
	return sw.sendOut(outFrame{body: p, release: release}, len(p))
}

// SendFile transmits one data frame of n bytes read from f's current
// offset. Ownership of the handle passes to the send path; release
// (typically closing f) is called exactly once after the bytes are on
// the wire or the frame is dropped. On plain TCP the file section is
// spliced with sendfile(2), so resident disk chunks are served without
// their bytes ever entering user space.
func (sw *StreamWriter) SendFile(f *os.File, n int64, release func()) error {
	return sw.sendOut(outFrame{file: f, fileN: n, release: release}, int(n))
}

// sendOut sends one data frame whose n body bytes travel out of band in
// f, calling f's release if the stream fails first.
func (sw *StreamWriter) sendOut(f outFrame, n int) error {
	if err := sw.acquire(); err != nil {
		if f.release != nil {
			f.release()
		}
		return err
	}
	f.w = streamHeader(sw.id, n)
	return sw.queue(f)
}

// UploadReader is the server half of an upload: the handler receives
// the client's data frames through it, then returns normally; the
// return value answers the call. Exactly one goroutine (the handler)
// may call Recv.
type UploadReader struct{ recvHalf }

// Recv returns the next data frame's payload. It returns io.EOF once
// the client finished the upload. The returned slice is valid only
// until the next Recv call — the buffer is recycled. Consuming frames
// grants the client more flow-control credit.
func (u *UploadReader) Recv() ([]byte, error) {
	p, _, err := u.recv()
	return p, err
}

// --- client side ------------------------------------------------------

// Stream is the client half of a response stream. Exactly one
// goroutine may call Recv; Close may be called at any time.
type Stream struct {
	recvHalf
	mc *muxConn
}

// Recv returns the next data frame and its virtual network cost. It
// returns io.EOF once the stream completed, after which Trailer holds
// the final response body. The returned slice is valid only until the
// next Recv or Close call — the buffer is recycled.
func (st *Stream) Recv() ([]byte, time.Duration, error) {
	p, cost, err := st.recv()
	if err == nil {
		// Consuming a frame is progress: keep the idle timeout from
		// firing on a reader slower than the buffered window.
		st.mc.touch(st.id)
	}
	return p, cost, err
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
	if st.shut() {
		st.mc.withdraw(st.id)
		st.mc.sendCancel(st.id)
		st.abort(ErrStreamCanceled)
	}
	st.drain()
	return nil
}

// UploadStream is the client half of an upload call. Exactly one
// goroutine may drive it: Send any number of times, then CloseAndRecv
// (or Cancel).
type UploadStream struct {
	sendHalf
	mc    *muxConn
	pc    *pendingCall
	ended bool // guarded by mu
}

// Send transmits one data frame, blocking while the flow-control
// window is exhausted. It fails once the server answered the call, the
// upload was canceled, or the connection died; CloseAndRecv then
// returns the authoritative result.
func (u *UploadStream) Send(p []byte) error {
	if err := u.acquire(); err != nil {
		return err
	}
	return u.queue(outFrame{w: encodeRequest(u.id, opUploadData, p, obs.SpanContext{})})
}

// end marks the upload ended, reporting whether it already was.
func (u *UploadStream) end() (already, failed bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	already, failed, u.ended = u.ended, u.err != nil, true
	return already, failed
}

// CloseAndRecv marks the upload complete and waits for the server's
// response — the handler's return value, exactly as a unary call
// would deliver it.
func (u *UploadStream) CloseAndRecv() ([]byte, time.Duration, error) {
	if already, failed := u.end(); !already && !failed {
		u.sender.enqueue(encodeRequest(u.id, opUploadEnd, nil, obs.SpanContext{}))
	}
	r := <-u.pc.done
	return r.resp, r.cost, r.err
}

// Cancel abandons the upload: the pending call is withdrawn, the
// server's handler is told to stop reading, and a later CloseAndRecv
// reports the cancellation. Canceling a completed call is a no-op.
func (u *UploadStream) Cancel() {
	if already, _ := u.end(); !already && u.mc.withdraw(u.id) {
		u.abort(ErrStreamCanceled)
		u.mc.sendCancel(u.id)
		u.pc.done <- callResult{err: ErrStreamCanceled}
	}
}

// --- frames -----------------------------------------------------------

// streamHeader encodes a data frame's header only — everything up to
// and including the body's length prefix — for a body of n bytes that
// travels out of band. Concatenated with the body it is byte-identical
// to the frame Send encodes, so receivers cannot tell the paths apart.
func streamHeader(id uint64, n int) *wire.Writer {
	w := wire.GetWriter(32)
	w.Uint64(id)
	w.Uint8(statusStream)
	w.Str("")
	w.Int64(0)
	w.Bytes32Prefix(n)
	return w
}

// encodeAck grants a response stream's server n more data frames.
func encodeAck(id uint64, n uint32) *wire.Writer {
	ack := encodeAckBody(n)
	return encodeRequest(id, opStreamAck, ack[:], obs.SpanContext{})
}

// encodeCredit grants an upload's client n more data frames.
func encodeCredit(id uint64, n uint32) *wire.Writer {
	ack := encodeAckBody(n)
	return responseFrame(id, statusCredit, "", 0, ack[:])
}

func encodeAckBody(n uint32) [4]byte {
	return [4]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
}

func decodeAck(body []byte) (uint32, error) {
	if len(body) != 4 {
		return 0, fmt.Errorf("rpc: malformed stream ack (%d bytes)", len(body))
	}
	return uint32(body[0])<<24 | uint32(body[1])<<16 | uint32(body[2])<<8 | uint32(body[3]), nil
}

// encodeUploadOpen wraps an operation and its header body into an
// opUploadOpen envelope.
func encodeUploadOpen(op uint16, header []byte) []byte {
	w := wire.NewWriter(8 + len(header))
	w.Uint16(op)
	w.Bytes32(header)
	return w.Bytes()
}

// decodeUploadOpen reverses encodeUploadOpen. The header aliases body.
func decodeUploadOpen(body []byte) (op uint16, header []byte, err error) {
	r := wire.NewReader(body)
	op = r.Uint16()
	header = r.Bytes32()
	return op, header, r.Done()
}
