package rpc

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"gdn/internal/obs"
	"gdn/internal/transport"
	"gdn/internal/wire"
)

// RemoteError is an application error returned by the remote handler,
// as opposed to a transport failure.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "rpc: remote error: " + e.Msg }

// IsRemote reports whether err is an application-level error from the
// remote handler rather than a transport failure.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// Call carries one inbound request to a handler.
//
// Body is valid only until the handler returns: the receive buffer
// behind it is recycled. Handlers that retain request bytes must
// copy them.
type Call struct {
	// Op is the service-specific operation code.
	Op uint16
	// Body is the opaque request body.
	Body []byte
	// Peer is the authenticated principal name when the connection runs
	// over a security channel, or "" for unauthenticated connections.
	Peer string
	// RemoteAddr is the transport address of the caller.
	RemoteAddr string

	// TC is the request's trace context. For a call delivered by a
	// Server it is the server-side span started for this request (the
	// caller's context regenerated at this hop), so handlers propagate
	// it into nested calls as-is; zero for untraced requests.
	TC obs.SpanContext

	cost time.Duration

	// req is the served request this call was decoded from; nil for
	// calls constructed outside a served connection. Copies of the Call
	// share it, so a stream opened through any copy is recorded there.
	req *serverRequest
}

// OpenStream switches this call's response into the streaming shape:
// the returned writer sends data frames to the caller, and the
// handler's eventual return value becomes the stream's trailer. Only
// calls delivered by a Server can stream, and not uploads.
func (c *Call) OpenStream() (*StreamWriter, error) {
	r := c.req
	if r == nil || r.stream.r != nil {
		return nil, errNotStreamable
	}
	if r.stream.w == nil {
		sw := &StreamWriter{}
		sw.init(r.streams.sender)
		sw.id = r.id
		if err := r.streams.open(r.id, serverStream{w: sw}); err != nil {
			return nil, err
		}
		r.stream.w = sw
	}
	return r.stream.w, nil
}

// Upload returns the reader for the client's data frames when this
// call was opened as an upload stream (Client.CallUpload), nil for a
// unary call. Handlers that accept both shapes probe it and fall back
// to decoding the request body.
func (c *Call) Upload() *UploadReader {
	if c.req == nil {
		return nil
	}
	return c.req.stream.r
}

// Charge adds the virtual cost of a nested call made while serving this
// request; it is reflected back to the caller in the response. Each
// Call is owned by the one handler goroutine dispatched for it; a
// handler that fans out must serialize its own Charge calls.
func (c *Call) Charge(d time.Duration) { c.cost += d }

// Cost returns the nested cost charged so far. Demultiplexing layers
// use it to propagate charges recorded on a copied Call to the original.
func (c *Call) Cost() time.Duration { return c.cost }

// Handler processes one request and returns the response body. A
// returned error is delivered to the client as a RemoteError. Handlers
// must be safe for concurrent use: pipelined requests on one connection
// are dispatched concurrently.
type Handler func(c *Call) ([]byte, error)

// ConnWrapper optionally upgrades an accepted or dialed connection —
// package sec uses this to install authenticated channels without rpc
// depending on it. It returns the upgraded connection and the peer's
// authenticated principal name ("" if anonymous).
type ConnWrapper func(transport.Conn) (transport.Conn, string, error)

// maxConnRequests bounds the handler goroutines in flight per
// connection. When a client pipelines more, the connection's read loop
// blocks, applying backpressure instead of letting one hostile or buggy
// peer spawn unbounded goroutines (paper §6.1).
const maxConnRequests = 256

// Server serves a Handler on one transport address.
type Server struct {
	handler Handler
	wrap    ConnWrapper
	logf    func(format string, args ...any)

	mu       sync.Mutex
	listener transport.Listener
	conns    map[transport.Conn]struct{}
	closed   bool
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerWrapper installs a connection upgrade (e.g. a security
// channel handshake) applied to every accepted connection.
func WithServerWrapper(w ConnWrapper) ServerOption {
	return func(s *Server) { s.wrap = w }
}

// WithServerLog directs server diagnostics to logf instead of the
// standard logger; tests use it to silence expected failures.
func WithServerLog(logf func(string, ...any)) ServerOption {
	return func(s *Server) { s.logf = logf }
}

// Serve starts serving handler on addr over net. It returns once the
// listener is installed; connections are handled on background
// goroutines until Close.
func Serve(net transport.Network, addr string, handler Handler, opts ...ServerOption) (*Server, error) {
	s := &Server{
		handler: handler,
		conns:   make(map[transport.Conn]struct{}),
		logf:    func(string, ...any) {},
	}
	for _, o := range opts {
		o(s)
	}
	l, err := net.Listen(addr)
	if err != nil {
		return nil, err
	}
	s.listener = l
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.listener.Addr() }

// Close stops the listener and tears down active connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (s *Server) acceptLoop() {
	for {
		c, err := s.listener.Accept()
		if err != nil {
			return
		}
		go s.serveConn(c)
	}
}

func (s *Server) track(c transport.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c transport.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// serveConn reads pipelined requests off one connection and dispatches
// each to its own handler goroutine. Responses are written back as they
// complete, tagged with the request ID, so they may overtake slower
// requests received earlier.
func (s *Server) serveConn(raw transport.Conn) {
	conn, peer := raw, ""
	if s.wrap != nil {
		var err error
		conn, peer, err = s.wrap(conn)
		if err != nil {
			s.logf("rpc: connection upgrade from %s failed: %v", raw.RemoteAddr(), err)
			raw.Close()
			return
		}
	}
	if !s.track(conn) {
		conn.Close()
		return
	}
	defer func() {
		s.untrack(conn)
		conn.Close()
	}()
	// Responses funnel through one flush-combining sender, so bursts of
	// concurrently completing handlers cost one vectored write. A send
	// failure closes the connection, which the read loop observes.
	sender := newConnSender(conn, func(error) { conn.Close() })
	// The connection's streams, both directions; torn down with it so no
	// handler stays parked on credit or data that can never arrive.
	streams := &streamTable{sender: sender, m: make(map[uint64]serverStream)}
	defer streams.closeAll(transport.ErrClosed)
	// Requests are dispatched to a lazily grown per-connection worker
	// pool: steady pipelined traffic reuses parked goroutines instead of
	// spawning one per request. The hand-off channel is unbuffered, so a
	// try-send succeeds only when a worker is actually parked waiting —
	// a request is never queued behind a busy worker while the pool has
	// room to grow. At the cap the blocking send is the backpressure.
	reqs := make(chan *serverRequest)
	defer close(reqs)
	var workers int
	for {
		frame, frameCost, err := conn.Recv()
		if err != nil {
			return
		}
		id, call, err := decodeRequest(frame)
		if err != nil {
			s.logf("rpc: malformed request from %s: %v", conn.RemoteAddr(), err)
			return
		}
		var upload *UploadReader
		if call.Op >= opReserved {
			if upload, err = s.control(streams, id, &call, frame, frameCost); err != nil {
				s.logf("rpc: %v from %s", err, conn.RemoteAddr())
				return
			}
			if upload == nil {
				continue
			}
		}
		call.Peer = peer
		call.RemoteAddr = conn.RemoteAddr()
		r := &serverRequest{call: call, id: id, frame: frame, frameCost: frameCost, streams: streams, stream: serverStream{r: upload}}
		r.call.req = r
		select {
		case reqs <- r:
		default:
			if workers < maxConnRequests {
				workers++
				go s.connWorker(reqs)
			}
			reqs <- r
		}
	}
}

// control consumes one reserved-op frame: stream credit and cancel, and
// the upload frames. An upload open returns the reader to dispatch the
// call with, the call rewritten to the inner op and header. An error
// condemns the connection.
func (s *Server) control(streams *streamTable, id uint64, call *Call, frame []byte, frameCost time.Duration) (*UploadReader, error) {
	switch call.Op {
	case opStreamAck:
		n, err := decodeAck(call.Body)
		if err != nil {
			return nil, err
		}
		if sw := streams.lookup(id).w; sw != nil {
			sw.grant(n)
		}
	case opStreamCancel:
		streams.lookup(id).abort(ErrStreamCanceled)
	case opUploadOpen:
		op, header, err := decodeUploadOpen(call.Body)
		if err != nil {
			return nil, fmt.Errorf("malformed upload open: %w", err)
		}
		if op >= opReserved {
			err = errReservedOp(op)
		} else {
			ur := &UploadReader{}
			ur.init(streams.sender, encodeCredit)
			ur.id = id
			if err = streams.open(id, serverStream{r: ur}); err == nil {
				call.Op, call.Body = op, header
				return ur, nil
			}
		}
		// Answer the call with the error (over the stream cap, say)
		// instead of wedging the uploader.
		streams.sender.enqueue(encodeResponse(id, nil, err, frameCost))
	case opUploadData:
		accepted, overrun := streams.deliver(id, streamEvent{data: call.Body, frame: frame, cost: frameCost})
		if overrun {
			return nil, errors.New("upload window overrun")
		}
		if accepted {
			return nil, nil // the reader owns the frame now
		}
		// No reader (the handler already answered); drop the frame.
	case opUploadEnd:
		streams.deliver(id, streamEvent{final: true, cost: frameCost}) //nolint:errcheck // late end frames are harmless
	default:
		s.logf("rpc: unknown reserved op %d", call.Op)
	}
	transport.PutFrame(frame)
	return nil, nil
}

// serverRequest is one request read off a served connection, with the
// stream it opened in either direction: the stream its handler's
// completion unlinks, and no other.
type serverRequest struct {
	call      Call
	id        uint64
	frame     []byte
	frameCost time.Duration
	streams   *streamTable
	stream    serverStream
}

func (s *Server) connWorker(reqs <-chan *serverRequest) {
	for r := range reqs {
		s.handleRequest(r)
	}
}

func (s *Server) handleRequest(r *serverRequest) {
	id, call, sender := r.id, &r.call, r.streams.sender
	// Regenerate the span at this hop: the handler runs under a fresh
	// server-side span whose context rides call.TC into any nested
	// calls the handler makes. Untraced requests get a nil span and an
	// unchanged (zero) TC.
	span := obs.StartSpan(call.TC, "rpc.serve op 0x"+strconv.FormatUint(uint64(call.Op), 16))
	call.TC = span.Context()
	start := time.Now()
	body, herr := s.safeHandle(call)
	mServeSeconds.ObserveSince(start)
	span.SetError(herr)
	span.End()
	if r.stream != (serverStream{}) {
		// The handler is done with its stream: unlink it so late frames
		// for it are dropped. An upload's reader then recycles anything
		// the handler never consumed, and the data frames' virtual cost
		// joins the response like any nested charge. A response
		// stream's data frames are already queued ahead of the trailer
		// below on the same sender, so ordering holds.
		r.streams.remove(id, r.stream)
		if ur := r.stream.r; ur != nil {
			call.Charge(ur.drain())
		}
	}
	w := encodeResponse(id, body, herr, r.frameCost+call.Cost())
	if err := w.Err(); err != nil {
		// The response body itself cannot be encoded (e.g. over the wire
		// size limit); deliver the encode failure as a remote error so
		// the caller learns why instead of losing the connection.
		w.Free()
		w = encodeResponse(id, nil, fmt.Errorf("response unencodable: %v", err), r.frameCost+call.Cost())
	}
	sender.enqueue(w)
	// The handler is done with the request body; recycle its frame.
	transport.PutFrame(r.frame)
}

// safeHandle runs the handler, converting a panic into an error so one
// bad request cannot take the server down (paper §6.1: availability in
// the face of malformed traffic).
func (s *Server) safeHandle(call *Call) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("handler panic: %v", r)
			mServePanics.Inc()
			s.logf("rpc: handler panic serving op %d: %v", call.Op, r)
		}
	}()
	return s.handler(call)
}

// decodeRequest splits a request frame. The call is returned by value:
// reserved-op frames never reach a handler, so they allocate nothing.
// Every request frame ends in the 16-byte trace tail; a frame without
// it is malformed.
func decodeRequest(frame []byte) (uint64, Call, error) {
	r := wire.NewReader(frame)
	id := r.Uint64()
	op := r.Uint16()
	body := r.Bytes32()
	tc := obs.SpanContext{Trace: r.Uint64(), Span: r.Uint64()}
	if err := r.Done(); err != nil {
		return 0, Call{}, err
	}
	return id, Call{Op: op, Body: body, TC: tc}, nil
}

// traceTailLen is the size of the trace context that ends every request
// frame: trace ID then span ID, both uint64 (zero for an untraced call).
const traceTailLen = 16

// encodeRequest builds a request frame in a pooled writer. The caller
// must Free it once the frame has been sent.
func encodeRequest(id uint64, op uint16, body []byte, tc obs.SpanContext) *wire.Writer {
	w := wire.GetWriter(14 + traceTailLen + len(body))
	w.Uint64(id)
	w.Uint16(op)
	w.Bytes32(body)
	w.Uint64(tc.Trace)
	w.Uint64(tc.Span)
	return w
}

// encodeResponse builds a call's final response frame: the handler's
// body, or its error.
func encodeResponse(id uint64, body []byte, herr error, cost time.Duration) *wire.Writer {
	if herr != nil {
		return responseFrame(id, statusErr, truncateErr(herr.Error()), cost, nil)
	}
	return responseFrame(id, statusOK, "", cost, body)
}

// responseFrame builds a response frame in a pooled writer. The caller
// must Free it once the frame has been sent.
func responseFrame(id uint64, status uint8, msg string, cost time.Duration, body []byte) *wire.Writer {
	w := wire.GetWriter(27 + len(msg) + len(body))
	w.Uint64(id)
	w.Uint8(status)
	w.Str(msg)
	w.Int64(int64(cost))
	w.Bytes32(body)
	return w
}

func truncateErr(s string) string {
	const max = 1024
	if len(s) > max {
		return s[:max]
	}
	return s
}

// decodeResponse splits a response frame. err is the remote
// application error (a *RemoteError) when the handler failed; derr is a
// decode failure, which condemns the whole connection.
func decodeResponse(frame []byte) (id uint64, status uint8, body []byte, cost time.Duration, err, derr error) {
	r := wire.NewReader(frame)
	id = r.Uint64()
	status = r.Uint8()
	msg := r.Str()
	cost = time.Duration(r.Int64())
	body = r.Bytes32()
	if derr = r.Done(); derr != nil {
		return 0, 0, nil, 0, nil, derr
	}
	switch status {
	case statusOK, statusStream, statusCredit:
		return id, status, body, cost, nil, nil
	case statusErr:
		return id, status, nil, cost, &RemoteError{Msg: msg}, nil
	default:
		// An unknown status byte means a corrupt or incompatible peer;
		// condemn the connection like any other malformed frame.
		return 0, 0, nil, 0, nil, fmt.Errorf("rpc: unknown response status %d", status)
	}
}
