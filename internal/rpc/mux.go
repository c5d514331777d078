package rpc

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gdn/internal/obs"
	"gdn/internal/transport"
)

// pipelineTarget is the in-flight depth at which a client configured
// with more than one connection opens another instead of piling more
// pipelined calls onto an existing one.
const pipelineTarget = 64

// DefaultTimeout seeds a Client's Timeout field at construction, so no
// operation can hang forever on a wedged connection — the failure mode
// one-way partitions produce, where requests flow out but responses
// never come back. NewClient copies it exactly once; calls in flight
// read only the client's own field (or WithTimeout's override), so
// chaos experiments that lower the var around world construction never
// race against live calls.
var DefaultTimeout = 30 * time.Second

// Dial backoff: after repeated failed dials the slot refuses further
// dial attempts for a jittered, exponentially growing cooldown, so the
// many callers sharing a client do not re-dial a dead remote full-rate.
// The gate arms only after dialBackoffAfter consecutive failures —
// below that every caller really dials, so a remote that bounced once
// is reached again the moment it is back — and the cap is kept small
// relative to lease TTLs so recovery after a heal is prompt.
const (
	dialBackoffBase  = 25 * time.Millisecond
	dialBackoffMax   = time.Second
	dialBackoffAfter = 3
)

// unsentError marks a failure that provably happened before the request
// left this process: the dial failed, the shared connection was already
// dead at registration, or the connection died while the request was
// still queued or was refused by the transport before a byte of it was
// written. Such failures are always safe to retry — on this client or
// on another replica — because the remote cannot have executed
// anything.
type unsentError struct{ err error }

func (e *unsentError) Error() string { return e.err.Error() }
func (e *unsentError) Unwrap() error { return e.err }

// IsUnsent reports whether err is a provably-unsent failure (see
// unsentError). Failover layers use it to retry writes safely.
func IsUnsent(err error) bool {
	var ue *unsentError
	return errors.As(err, &ue)
}

// Client issues calls to one service address over a small set of shared
// multiplexed connections (one by default). Any number of goroutines
// may call concurrently; their requests are pipelined over the shared
// connections and matched to responses by request ID. Clients are safe
// for concurrent use.
type Client struct {
	net  transport.Network
	from string
	addr string
	wrap ConnWrapper

	// Timeout bounds one call once its connection is established.
	// NewClient seeds it from DefaultTimeout; WithTimeout overrides it.
	// Zero or negative (possible only on a hand-built Client) falls
	// back to DefaultTimeout per call — every call has a deadline, so a
	// wedged or one-way-partitioned connection can never park a caller
	// forever.
	Timeout time.Duration

	// Retries is the per-call budget of redials after a request that a
	// dead connection provably never sent (IsUnsent). NewClient leaves
	// it 0; a Clients table sets 1, so a shared connection whose peer
	// restarted costs a redial, not a failed call. A failed dial is not
	// retried: the dial-backoff gate and failover across replicas
	// (core.PeerSet) deal with a dead remote.
	Retries int

	slots []*connSlot
	shut  atomic.Bool
}

// connSlot holds one shared connection. mu serializes (re)dialing the
// slot and guards the dial-backoff gate; readers go through the atomic
// pointer without locking.
type connSlot struct {
	mu sync.Mutex
	mc atomic.Pointer[muxConn]

	// Dial-backoff gate (guarded by mu): after consecutive dial
	// failures the slot fails fast until nextTry instead of re-dialing
	// a dead remote at the callers' full rate.
	fails   int
	nextTry time.Time
	lastErr error
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithClientWrapper installs a connection upgrade applied to every
// dialed connection (e.g. the client side of a security channel).
func WithClientWrapper(w ConnWrapper) ClientOption {
	return func(c *Client) { c.wrap = w }
}

// WithTimeout overrides the construction-time default call timeout.
// Chaos and e2e harnesses use it to bound calls tighter than
// DefaultTimeout without mutating the package var while other clients
// are live.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.Timeout = d
		}
	}
}

// WithMaxConns bounds the number of shared multiplexed connections
// (default 1). More than one only helps when a single connection's
// in-flight window saturates, e.g. very high concurrency over real TCP.
func WithMaxConns(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.slots = make([]*connSlot, n)
		}
	}
}

// NewClient returns a client that dials addr over net from the named
// site (the site matters only on simulated networks).
func NewClient(net transport.Network, from, addr string, opts ...ClientOption) *Client {
	c := &Client{net: net, from: from, addr: addr, Timeout: DefaultTimeout}
	c.slots = make([]*connSlot, 1)
	for _, o := range opts {
		o(c)
	}
	for i := range c.slots {
		c.slots[i] = &connSlot{}
	}
	return c
}

// Addr returns the remote service address.
func (c *Client) Addr() string { return c.addr }

// Close tears down the shared connections. In-flight calls fail.
func (c *Client) Close() error {
	c.shut.Store(true)
	for _, s := range c.slots {
		if mc := s.mc.Load(); mc != nil {
			mc.fail(transport.ErrClosed)
		}
	}
	return nil
}

// conn picks the least-loaded live connection, dialing a fresh one only
// when none is live or every live one is saturated and a spare slot
// remains.
func (c *Client) conn() (*muxConn, error) {
	if c.shut.Load() {
		return nil, transport.ErrClosed
	}
	var best *muxConn
	var bestLoad int64
	var spare *connSlot
	for _, s := range c.slots {
		mc := s.mc.Load()
		if mc == nil || mc.dead.Load() {
			if spare == nil {
				spare = s
			}
			continue
		}
		if load := mc.inflight.Load(); best == nil || load < bestLoad {
			best, bestLoad = mc, load
		}
	}
	if best != nil && (spare == nil || bestLoad < pipelineTarget) {
		return best, nil
	}
	if spare == nil {
		return best, nil
	}
	mc, err := c.dial(spare)
	if err != nil && best != nil {
		// The extra connection was only a capacity hint; a live conn
		// can still carry the call even above the pipeline target.
		return best, nil
	}
	return mc, err
}

func (c *Client) dial(s *connSlot) (*muxConn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if mc := s.mc.Load(); mc != nil && !mc.dead.Load() {
		return mc, nil
	}
	if s.fails >= dialBackoffAfter && time.Now().Before(s.nextTry) {
		// Inside the cooldown window: fail fast with the last dial
		// error instead of hammering a dead remote. The wrapper keeps
		// the underlying error visible to errors.Is, so failover
		// classification is unchanged.
		mDialBackoff.Inc()
		return nil, &unsentError{fmt.Errorf("rpc: dial %s backed off (%d consecutive failures): %w", c.addr, s.fails, s.lastErr)}
	}
	raw, err := c.net.Dial(c.from, c.addr)
	if err != nil {
		mDialErr.Inc()
		s.fails++
		s.lastErr = err
		s.nextTry = time.Now().Add(transport.Backoff(s.fails-dialBackoffAfter+1, dialBackoffBase, dialBackoffMax))
		return nil, &unsentError{err}
	}
	conn := raw
	if c.wrap != nil {
		var werr error
		conn, _, werr = c.wrap(conn)
		if werr != nil {
			raw.Close()
			// A failed upgrade exchanged frames with the remote, so it
			// is not provably unsent — but it still arms the gate.
			mDialErr.Inc()
			s.fails++
			s.lastErr = werr
			s.nextTry = time.Now().Add(transport.Backoff(s.fails-dialBackoffAfter+1, dialBackoffBase, dialBackoffMax))
			return nil, werr
		}
	}
	mDialOK.Inc()
	s.fails, s.lastErr, s.nextTry = 0, nil, time.Time{}
	mc := newMuxConn(conn, c.addr)
	s.mc.Store(mc)
	if c.shut.Load() {
		// Close raced with the dial; do not leak the connection.
		mc.fail(transport.ErrClosed)
		return nil, transport.ErrClosed
	}
	go mc.recvLoop()
	return mc, nil
}

// timeout resolves the effective call deadline: the client's field,
// seeded from DefaultTimeout at construction. The var is re-read only
// for hand-built Clients whose field was left zero.
func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

// Call sends one request and waits for the response. The request is
// issued under a fresh child span of tc (regenerated at this hop) that
// travels in the frame's trace tail, and the round trip is recorded as
// a span; the zero tc means untraced and costs nothing. The returned
// cost is the virtual network cost of the full call tree: request
// frame, the server's nested calls, and the response frame.
func (c *Client) Call(tc obs.SpanContext, op uint16, body []byte) (resp []byte, cost time.Duration, err error) {
	return c.CallTimeout(tc, op, body, c.Timeout)
}

// CallTimeout is Call with a per-call deadline overriding the client's
// Timeout — for callers that must bound one operation tighter than the
// rest (an orderly shutdown closing sessions on a possibly-dead
// remote). Zero or negative selects the client's Timeout; every call
// runs under some deadline.
func (c *Client) CallTimeout(tc obs.SpanContext, op uint16, body []byte, timeout time.Duration) ([]byte, time.Duration, error) {
	if timeout <= 0 {
		timeout = c.timeout()
	}
	span := obs.StartSpan(tc, "rpc.call op 0x"+strconv.FormatUint(uint64(op), 16))
	wtc := span.Context()
	start := time.Now()
	var resp []byte
	var cost time.Duration
	err := c.withConn(func(mc *muxConn) error {
		r, cc, err := mc.call(op, body, timeout, wtc)
		resp = r
		cost += cc
		return err
	})
	mCallSeconds.ObserveSince(start)
	if err != nil {
		mCallErrors.Inc()
	}
	span.SetError(err)
	span.End()
	return resp, cost, err
}

// withConn runs one call attempt on a live connection. When the
// connection turns out dead and the request provably never left it,
// the attempt is redialed, within the Retries budget: the remote cannot
// have executed anything, so the retry is safe even for non-idempotent
// ops. Timeouts and failures after a byte went out are never retried —
// the request's fate is unknown.
func (c *Client) withConn(attempt func(*muxConn) error) error {
	for n := 0; ; n++ {
		mc, err := c.conn()
		if err != nil {
			return err
		}
		err = attempt(mc)
		if err == nil || n >= c.Retries || !IsUnsent(err) {
			return err
		}
		mRetries.Inc()
	}
}

// CallStream sends one request whose response arrives as a stream of
// data frames — the bulk-transfer call shape. tc (zero when untraced)
// rides the request frame so the serving hop's spans join its trace;
// the stream's duration is recorded by the serving handler's span, not
// a client span — the client cannot know when the consumer finishes.
// The client's Timeout applies per frame (an idle limit), so
// arbitrarily large transfers survive as long as data keeps flowing.
func (c *Client) CallStream(tc obs.SpanContext, op uint16, body []byte) (st *Stream, err error) {
	err = c.withConn(func(mc *muxConn) error {
		st = &Stream{mc: mc}
		st.init(mc.sender, encodeAck)
		st.id, err = mc.register(mc.pending(op, c.timeout(), &st.recvHalf, nil), op, body, tc)
		return err
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// CallUpload opens one request whose body arrives at the server as a
// stream of data frames — the bulk-transfer call shape in the
// deploying direction. header is delivered as the handler's request
// body; the handler's return value answers CloseAndRecv. tc rides the
// upload-open frame, so the handler's span joins its trace. The
// client's Timeout acts per credit grant (an idle limit), so
// arbitrarily large uploads survive as long as the server keeps
// consuming.
func (c *Client) CallUpload(tc obs.SpanContext, op uint16, header []byte) (us *UploadStream, err error) {
	err = c.withConn(func(mc *muxConn) error {
		us = &UploadStream{mc: mc}
		us.init(mc.sender)
		us.pc = mc.pending(op, c.timeout(), nil, &us.sendHalf)
		us.id, err = mc.register(us.pc, opUploadOpen, encodeUploadOpen(op, header), tc)
		return err
	})
	if err != nil {
		return nil, err
	}
	return us, nil
}

// callResult is what the demux goroutine (or the deadline sweeper, or a
// connection-failure broadcast) hands back to a waiting caller.
type callResult struct {
	resp []byte
	cost time.Duration
	err  error
}

// pendingCall is one table entry for an in-flight request.
type pendingCall struct {
	op       uint16
	timeout  time.Duration
	deadline time.Time       // zero when the call has no timeout
	done     chan callResult // buffered; exactly one result is ever sent

	// A stream call's half on this side: recv for a response stream,
	// send for an upload; both nil for a unary call.
	recv *recvHalf
	send *sendHalf

	// wire says whether the request frame may have reached the peer.
	// The sender moves it reqUnsent → reqSent before handing the frame
	// to the transport (and back if the transport wrote nothing); a
	// registrant that finds the connection dead moves it reqUnsent →
	// reqAbandoned, and the sender then skips the frame. Whoever wins
	// the swap decides: a failure delivered while it is not reqSent is
	// provably unsent.
	wire atomic.Int32
}

// pendingCall.wire states.
const (
	reqUnsent int32 = iota
	reqSent
	reqAbandoned
)

// pendShards stripes the pending-call table. Every frame sent and
// received crosses the table, so under high pipelining (64 in-flight
// calls, streams acking every frame) one mutex became the hot spot;
// IDs are sequential, so id&mask spreads registrations evenly.
const pendShards = 8

// pendShard is one stripe of the pending table with its own deadline
// sweeper: the timer is armed for the stripe's earliest deadline, so
// timeout bookkeeping never takes a lock shared with other stripes.
type pendShard struct {
	mu      sync.Mutex
	pending map[uint64]*pendingCall
	timer   *time.Timer // nil until the first deadline is armed
	timerAt time.Time
}

// muxConn is one shared connection carrying many in-flight calls. A
// single recvLoop goroutine demultiplexes responses to the striped
// pending table; timeouts are swept per stripe by a timer armed for
// that stripe's earliest pending deadline.
type muxConn struct {
	conn   transport.Conn
	addr   string
	sender *connSender

	inflight atomic.Int64
	dead     atomic.Bool
	lastRecv atomic.Int64 // unix nanos of the last received frame
	nextID   atomic.Uint64

	// failMu serializes fail(); deadErr is written under it before the
	// dead flag is raised, so any reader that observed dead may read it.
	failMu  sync.Mutex
	deadErr error

	shards [pendShards]pendShard
}

func newMuxConn(conn transport.Conn, addr string) *muxConn {
	m := &muxConn{conn: conn, addr: addr}
	for i := range m.shards {
		m.shards[i].pending = make(map[uint64]*pendingCall)
	}
	m.lastRecv.Store(time.Now().UnixNano())
	m.sender = newConnSender(conn, m.fail)
	return m
}

func (m *muxConn) pendShardOf(id uint64) *pendShard {
	return &m.shards[id&(pendShards-1)]
}

// pendingLen reports the total pending-call count (tests only).
func (m *muxConn) pendingLen() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.pending)
		sh.mu.Unlock()
	}
	return n
}

// pending returns a fresh pending call for op, with the stream half a
// stream call carries on this side.
func (m *muxConn) pending(op uint16, timeout time.Duration, recv *recvHalf, send *sendHalf) *pendingCall {
	return &pendingCall{op: op, timeout: timeout, done: make(chan callResult, 1), recv: recv, send: send}
}

// register installs a pending call and sends its request frame, whose
// op is pc.op — or opUploadOpen, for an upload, whose envelope body
// carries pc.op. It reports the assigned ID; on an encode failure the
// call is withdrawn and the error returned.
func (m *muxConn) register(pc *pendingCall, frameOp uint16, body []byte, tc obs.SpanContext) (uint64, error) {
	if pc.op >= opReserved {
		// Reserved ops are consumed by the RPC layer on the server; a
		// service call using one would be misread as flow control and
		// hang or condemn the shared connection. Fail loudly instead.
		return 0, errReservedOp(pc.op)
	}
	if m.dead.Load() {
		// Dead at registration: the request was never sent, which makes
		// the failure safe to retry here or on another replica.
		return 0, &unsentError{m.deadErr}
	}
	id := m.nextID.Add(1) - 1
	sh := m.pendShardOf(id)
	sh.mu.Lock()
	if pc.timeout > 0 {
		pc.deadline = time.Now().Add(pc.timeout)
		m.armSweepLocked(sh, pc.deadline)
	}
	sh.pending[id] = pc
	m.inflight.Add(1)
	sh.mu.Unlock()
	if m.dead.Load() {
		// fail() may have swept this stripe before our insert landed;
		// withdraw the entry if it is still ours, else the broadcast
		// owns the result and the caller hears from it.
		if m.withdraw(id) {
			return 0, &unsentError{m.deadErr}
		}
		return id, nil
	}

	w := encodeRequest(id, frameOp, body, tc)
	if err := w.Err(); err != nil {
		// The body cannot be encoded (e.g. over the wire size limits).
		// Fail just this call; the connection is untouched.
		w.Free()
		if m.withdraw(id) {
			return id, err
		}
		return id, nil // a racing failure broadcast owns the result
	}
	// Hand the frame to the flush-combining sender. A send failure
	// condemns the connection, and the failure broadcast delivers the
	// error to our pending entry — no per-call error path needed. But
	// when the connection is already dead on return (a shared conn whose
	// peer went away, found by this very send) and the frame provably
	// never went out, say so now: streams and uploads would otherwise
	// learn it only at their first Recv, too late for a redial.
	m.sender.enqueueOut(outFrame{w: w, pc: pc})
	if m.dead.Load() && pc.wire.CompareAndSwap(reqUnsent, reqAbandoned) {
		return 0, &unsentError{m.deadErr}
	}
	return id, nil
}

func (m *muxConn) call(op uint16, body []byte, timeout time.Duration, tc obs.SpanContext) ([]byte, time.Duration, error) {
	pc := m.pending(op, timeout, nil, nil)
	if _, err := m.register(pc, op, body, tc); err != nil {
		return nil, 0, err
	}
	r := <-pc.done
	return r.resp, r.cost, r.err
}

// withdraw removes one pending call, reporting whether this caller
// owned it (false when a failure broadcast or completion already took
// it, and the result channel is or will be filled by that owner).
func (m *muxConn) withdraw(id uint64) bool {
	sh := m.pendShardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.pending[id]; !ok {
		return false
	}
	delete(sh.pending, id)
	m.inflight.Add(-1)
	return true
}

// touch refreshes a stream call's idle deadline on progress — a data
// frame or credit arriving, or the consumer taking a frame — and
// returns the call (nil once it left the table). The timeout bounds
// silence, not the whole transfer; a consumer slower than the window
// would otherwise see no arrivals for a whole timeout despite reading.
func (m *muxConn) touch(id uint64) *pendingCall {
	sh := m.pendShardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pc := sh.pending[id]
	if pc != nil && (pc.recv != nil || pc.send != nil) && pc.timeout > 0 {
		pc.deadline = time.Now().Add(pc.timeout)
		m.armSweepLocked(sh, pc.deadline)
	}
	return pc
}

// sendCancel tells the server to abort one stream, so its handler does
// not stay parked waiting for credit or data that will never come.
func (m *muxConn) sendCancel(id uint64) {
	m.sender.enqueue(encodeRequest(id, opStreamCancel, nil, obs.SpanContext{}))
}

// recvLoop is the per-connection demux goroutine: it receives response
// frames, adds each frame's own virtual cost to the server-reported
// cost, and wakes the caller registered under the frame's request ID.
// Stream data and upload credit frames go to the call's stream half
// without completing the call; each one refreshes its idle deadline.
func (m *muxConn) recvLoop() {
	for {
		frame, frameCost, err := m.conn.Recv()
		if err != nil {
			m.fail(err)
			return
		}
		m.lastRecv.Store(time.Now().UnixNano())
		id, status, body, cost, rerr, derr := decodeResponse(frame)
		if derr != nil {
			transport.PutFrame(frame)
			m.fail(fmt.Errorf("rpc: malformed response from %s: %w", m.addr, derr))
			return
		}

		if status == statusStream || status == statusCredit {
			pc := m.touch(id)
			switch {
			case pc == nil:
				// Canceled or timed-out stream; drop the late frame.
			case status == statusCredit:
				if pc.send != nil {
					n, err := decodeAck(body)
					if err != nil {
						transport.PutFrame(frame)
						m.fail(fmt.Errorf("rpc: malformed credit from %s: %w", m.addr, err))
						return
					}
					pc.send.grant(n)
				}
			case pc.recv == nil:
				// A data frame for a call that is no response stream:
				// op/shape mismatch. Fail the call and stop the sender
				// instead of wedging.
				if m.withdraw(id) {
					deliverFailure(pc, fmt.Errorf("rpc: streaming response to unary call (op %d)", pc.op))
					m.sendCancel(id)
				}
			case !pc.recv.deliver(streamEvent{data: body, frame: frame, cost: frameCost}):
				// The frame was not queued and is still ours to recycle.
				transport.PutFrame(frame)
				m.fail(fmt.Errorf("rpc: %s overran the stream window", m.addr))
				return
			default:
				continue // the stream owns the frame now
			}
			transport.PutFrame(frame)
			continue
		}

		sh := m.pendShardOf(id)
		sh.mu.Lock()
		pc := sh.pending[id]
		if pc != nil {
			delete(sh.pending, id)
			m.inflight.Add(-1)
		}
		sh.mu.Unlock()
		switch {
		case pc == nil:
			// A response with no pending entry belongs to a call that
			// timed out; recycle and drop it.
			transport.PutFrame(frame)
		case pc.recv != nil:
			// The trailer's bytes escape to the stream consumer, so its
			// frame is not recycled.
			pc.recv.deliver(streamEvent{final: true, resp: body, cost: frameCost + cost, err: rerr})
		default:
			// The response body escapes to the caller; hand it a
			// right-sized copy so the (size-classed, typically larger)
			// receive buffer goes back to the pool instead of leaking
			// out of it one response at a time.
			var resp []byte
			if len(body) > 0 {
				resp = make([]byte, len(body))
				copy(resp, body)
			}
			transport.PutFrame(frame)
			if pc.send != nil {
				// The server answered an upload, possibly before the
				// client finished sending: fail further Sends.
				pc.send.abort(cmp.Or(rerr, errUploadFinished))
			}
			pc.done <- callResult{resp: resp, cost: frameCost + cost, err: rerr}
		}
	}
}

// fail marks the connection dead, closes it, and delivers err to every
// pending call. It is idempotent.
func (m *muxConn) fail(err error) {
	m.failMu.Lock()
	if m.dead.Load() {
		m.failMu.Unlock()
		return
	}
	m.deadErr = err
	m.dead.Store(true)
	m.failMu.Unlock()
	m.conn.Close()
	m.sender.fail(err)
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		pend := sh.pending
		sh.pending = make(map[uint64]*pendingCall)
		if sh.timer != nil {
			sh.timer.Stop()
			sh.timer = nil
		}
		sh.mu.Unlock()
		for _, pc := range pend {
			m.inflight.Add(-1)
			if pc.wire.Load() != reqSent {
				deliverFailure(pc, &unsentError{err})
			} else {
				deliverFailure(pc, err)
			}
		}
	}
}

// deliverFailure completes one withdrawn pending call with err,
// through its response stream when it has one.
func deliverFailure(pc *pendingCall, err error) {
	if pc.recv != nil {
		pc.recv.abort(err)
		return
	}
	if pc.send != nil {
		// Wake a Send parked on credit before completing the call.
		pc.send.abort(err)
	}
	pc.done <- callResult{err: err}
}

// armSweepLocked ensures sh's sweep timer fires no later than dl.
// Called with sh.mu held.
func (m *muxConn) armSweepLocked(sh *pendShard, dl time.Time) {
	if sh.timer == nil {
		sh.timerAt = dl
		sh.timer = time.AfterFunc(time.Until(dl), func() { m.sweep(sh) })
		return
	}
	if dl.Before(sh.timerAt) {
		sh.timerAt = dl
		sh.timer.Reset(time.Until(dl))
	}
}

// sweep expires one stripe's pending calls whose deadline has passed
// and re-arms the stripe's timer for its next earliest deadline. One
// timer per stripe replaces the old goroutine-plus-timer per call.
//
// A timed-out call normally just leaves the table — the connection
// stays usable and its late response (if any) is dropped by recvLoop,
// so one slow handler cannot condemn the shared connection for every
// other caller. But if the connection has been completely silent for an
// expired call's entire timeout window (no frame received since before
// the call started), the transport itself is almost certainly wedged —
// e.g. a real-TCP peer that stopped reading, leaving our flusher
// blocked in a write forever. Then the connection is condemned, which
// closes it, unblocks any stuck writer, fails the remaining pending
// calls, and makes the next Call redial — the recovery the seed client
// got by closing the connection on every timeout.
func (m *muxConn) sweep(sh *pendShard) {
	now := time.Now()
	type expiredCall struct {
		id uint64
		pc *pendingCall
	}
	var expired []expiredCall
	var wedged bool
	sh.mu.Lock()
	if m.dead.Load() {
		sh.mu.Unlock()
		return
	}
	// Snapshot under the lock: a frame delivered while sweep waited on
	// sh.mu must count as a sign of life, or a live connection could be
	// condemned on a stale reading.
	lastRecv := time.Unix(0, m.lastRecv.Load())
	var next time.Time
	for id, pc := range sh.pending {
		if pc.deadline.IsZero() {
			continue
		}
		if !pc.deadline.After(now) {
			delete(sh.pending, id)
			m.inflight.Add(-1)
			expired = append(expired, expiredCall{id: id, pc: pc})
			if started := pc.deadline.Add(-pc.timeout); lastRecv.Before(started) {
				wedged = true
			}
		} else if next.IsZero() || pc.deadline.Before(next) {
			next = pc.deadline
		}
	}
	if next.IsZero() {
		// No armed deadlines remain; the next registration re-creates
		// the timer.
		sh.timer = nil
	} else {
		sh.timerAt = next
		sh.timer.Reset(time.Until(next))
	}
	sh.mu.Unlock()
	for _, e := range expired {
		mTimeouts.Inc()
		deliverFailure(e.pc, fmt.Errorf("rpc: call to %s op %d timed out after %v", m.addr, e.pc.op, e.pc.timeout))
		if e.pc.recv != nil || e.pc.send != nil {
			// The server side of a timed-out stream is still parked
			// waiting for credit or data; release it, or its handler
			// goroutine would be leaked for the life of the connection.
			m.sendCancel(e.id)
		}
	}
	if wedged {
		mCondemnedWedged.Inc()
		m.fail(fmt.Errorf("rpc: connection to %s silent through a full timeout window", m.addr))
	}
}
