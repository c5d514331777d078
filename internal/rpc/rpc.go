package rpc

import (
	"errors"
	"fmt"
	"log"
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

	// openStream is installed by the server so handlers can switch the
	// response into the streaming shape; nil for calls constructed
	// outside a served connection.
	openStream func() (*StreamWriter, error)

	// upload carries the client's data frames when the call was opened
	// as an upload stream; nil for unary calls.
	upload *UploadReader
}

// OpenStream switches this call's response into the streaming shape:
// the returned writer sends data frames to the caller, and the
// handler's eventual return value becomes the stream's trailer. Only
// calls delivered by a Server can stream.
func (c *Call) OpenStream() (*StreamWriter, error) {
	if c.openStream == nil {
		return nil, errNotStreamable
	}
	return c.openStream()
}

// Upload returns the reader for the client's data frames when this
// call was opened as an upload stream (Client.CallUpload), nil for a
// unary call. Handlers that accept both shapes probe it and fall back
// to decoding the request body.
func (c *Call) Upload() *UploadReader { return c.upload }

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
	// Response streams for this connection; torn down with it so no
	// handler stays blocked on flow-control credit.
	streams := newStreamTable(sender)
	defer streams.closeAll(transport.ErrClosed)
	// Inbound upload streams; torn down with the connection so no
	// handler stays parked in Recv.
	uploads := newUploadTable(sender)
	defer uploads.closeAll(transport.ErrClosed)
	// Requests are dispatched to a lazily grown per-connection worker
	// pool: steady pipelined traffic reuses parked goroutines instead of
	// spawning one per request. The hand-off channel is unbuffered, so a
	// try-send succeeds only when a worker is actually parked waiting —
	// a request is never queued behind a busy worker while the pool has
	// room to grow. At the cap the blocking send is the backpressure.
	reqs := make(chan serverRequest)
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
		if call.Op >= opReserved {
			// Stream flow-control and upload frames are consumed by the
			// RPC layer itself, never dispatched — except opUploadOpen,
			// which unwraps into an ordinary dispatch with a reader
			// attached.
			switch call.Op {
			case opStreamAck:
				n, err := decodeAck(call.Body)
				if err != nil {
					s.logf("rpc: %v from %s", err, conn.RemoteAddr())
					return
				}
				streams.ack(id, n)
			case opStreamCancel:
				// A request ID names at most one stream direction; tell
				// both tables and let the other shrug.
				streams.cancel(id)
				uploads.cancel(id)
			case opUploadOpen:
				innerOp, header, err := decodeUploadOpen(call.Body)
				if err != nil {
					s.logf("rpc: malformed upload open from %s: %v", conn.RemoteAddr(), err)
					return
				}
				if innerOp >= opReserved {
					sender.enqueue(encodeResponse(id, nil, fmt.Errorf("rpc: op %#x is reserved for the protocol", innerOp), frameCost))
					break
				}
				ur, err := uploads.open(id)
				if err != nil {
					// Over the upload cap (or racing teardown): answer the
					// call with the error instead of wedging the uploader.
					sender.enqueue(encodeResponse(id, nil, err, frameCost))
					break
				}
				call.Op = innerOp
				call.Body = header
				call.upload = ur
				goto dispatch
			case opUploadData:
				if ok, overrun := uploads.deliver(id, uploadEvent{data: call.Body, frame: frame, cost: frameCost}); ok {
					continue // the reader owns the frame now
				} else if overrun {
					s.logf("rpc: %s overran the upload window", conn.RemoteAddr())
					return
				}
				// No reader (handler already answered); drop the frame.
			case opUploadEnd:
				uploads.deliver(id, uploadEvent{final: true, cost: frameCost}) //nolint:errcheck // late end frames are harmless
			default:
				s.logf("rpc: unknown reserved op %d from %s", call.Op, conn.RemoteAddr())
			}
			transport.PutFrame(frame)
			continue
		}
	dispatch:
		call.Peer = peer
		call.RemoteAddr = conn.RemoteAddr()
		call.openStream = func() (*StreamWriter, error) { return streams.open(id) }
		r := serverRequest{id: id, call: call, frameCost: frameCost, frame: frame}
		select {
		case reqs <- r:
		default:
			if workers < maxConnRequests {
				workers++
				go s.connWorker(sender, streams, uploads, reqs)
			}
			reqs <- r
		}
	}
}

type serverRequest struct {
	id        uint64
	call      *Call
	frameCost time.Duration
	frame     []byte
}

func (s *Server) connWorker(sender *connSender, streams *streamTable, uploads *uploadTable, reqs <-chan serverRequest) {
	for r := range reqs {
		s.handleRequest(sender, streams, uploads, r)
	}
}

func (s *Server) handleRequest(sender *connSender, streams *streamTable, uploads *uploadTable, r serverRequest) {
	id, call := r.id, r.call
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
	if call.upload != nil {
		// The handler is done with the upload: withdraw the reader so
		// late data frames are dropped, recycle anything it never
		// consumed, and fold the data frames' virtual cost into the
		// response like any nested charge.
		if ur := uploads.take(id); ur != nil {
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
	// If the handler streamed, its return value travels as the final
	// (trailer) frame; data frames are already queued ahead of it on
	// the same sender, so ordering holds.
	streams.take(id)
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

// decodeRequest splits a request frame. The 16-byte trace tail is
// optional: frames from peers predating trace propagation simply end
// after the body and decode to an untraced call, so the wire format
// stays compatible in both directions.
func decodeRequest(frame []byte) (uint64, *Call, error) {
	r := wire.NewReader(frame)
	id := r.Uint64()
	op := r.Uint16()
	body := r.Bytes32()
	var tc obs.SpanContext
	if r.Remaining() == traceTailLen {
		tc.Trace = r.Uint64()
		tc.Span = r.Uint64()
	}
	if err := r.Done(); err != nil {
		return 0, nil, err
	}
	return id, &Call{Op: op, Body: body, TC: tc}, nil
}

// traceTailLen is the size of the optional trace context appended to
// request frames: trace ID then span ID, both uint64.
const traceTailLen = 16

// encodeRequest builds a request frame in a pooled writer. The caller
// must Free it once the frame has been sent. A valid trace context is
// appended as the optional 16-byte tail; untraced requests keep the
// seed frame layout byte for byte.
func encodeRequest(id uint64, op uint16, body []byte, tc obs.SpanContext) *wire.Writer {
	w := wire.GetWriter(14 + traceTailLen + len(body))
	w.Uint64(id)
	w.Uint16(op)
	w.Bytes32(body)
	if tc.Valid() {
		w.Uint64(tc.Trace)
		w.Uint64(tc.Span)
	}
	return w
}

// encodeResponse builds a response frame in a pooled writer. The caller
// must Free it once the frame has been sent.
func encodeResponse(id uint64, body []byte, herr error, cost time.Duration) *wire.Writer {
	w := wire.GetWriter(24 + len(body))
	w.Uint64(id)
	if herr != nil {
		w.Uint8(1)
		w.Str(truncateErr(herr.Error()))
		w.Int64(int64(cost))
		w.Bytes32(nil)
	} else {
		w.Uint8(0)
		w.Str("")
		w.Int64(int64(cost))
		w.Bytes32(body)
	}
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

// LogTo is the default diagnostic sink for servers created without
// WithServerLog by cmd/ daemons.
func LogTo(prefix string) func(string, ...any) {
	return func(format string, args ...any) {
		log.Printf(prefix+": "+format, args...)
	}
}
