package rpc

import (
	"errors"
	"os"
	"sync"

	"gdn/internal/transport"
	"gdn/internal/wire"
)

// outFrame is one outbound frame queued on a connSender. Three shapes
// exist:
//
//   - plain: w holds the whole encoded frame (unary requests and
//     responses, credit grants). body and file are nil.
//   - vectored: w holds only the frame header; body is an out-of-band
//     payload whose bytes follow w's on the wire without ever being
//     copied into the encoder. This is how chunk bodies travel from the
//     store's buffers straight into the transport's writev.
//   - file-backed: w holds the frame header; fileN bytes are read from
//     file's current offset by the transport (sendfile on TCP).
//
// The sender owns everything in an outFrame: w is freed and release is
// called exactly once, after the frame has been written to the
// transport or dropped because the connection died. release is the
// buffer-ownership handoff the zero-copy path is built on — the store
// recycles a chunk buffer (or closes a chunk file) only when the wire
// is done with it.
type outFrame struct {
	w       *wire.Writer
	body    []byte
	file    *os.File
	fileN   int64
	release func()

	// pc is the pending call a request frame opens, nil for every other
	// frame; the sender records on it whether the frame reached the
	// transport (see pendingCall.wire).
	pc *pendingCall
}

// done releases everything the sender owned for this frame.
func (f *outFrame) done() {
	f.w.Free()
	if f.release != nil {
		f.release()
	}
}

// connSender serializes outbound frames for one connection with flush
// combining: the first enqueuer becomes the flusher and keeps draining
// the queue, so frames enqueued by other goroutines while a send is in
// flight go out together — one SendFrames call per drained batch, which
// is one vectored write on TCP. Under load this collapses many
// pipelined requests (or responses) into one syscall; with a single
// caller it degenerates to a plain immediate send, adding no latency.
//
// The sender owns every frame handed to enqueue and releases it after
// the frame is sent or discarded. Send failures are reported once
// through onErr; frames enqueued after a failure are silently dropped,
// which is correct for RPC because a send failure condemns the
// connection and the pending-call table delivers the failure to every
// caller.
type connSender struct {
	conn  transport.Conn
	onErr func(error)

	mu     sync.Mutex
	queue  []outFrame
	spare  []outFrame // recycled queue backing, swapped by flush
	active bool
	dead   bool

	frames []transport.Frame // the flusher's SendFrames scratch
}

func newConnSender(conn transport.Conn, onErr func(error)) *connSender {
	return &connSender{conn: conn, onErr: onErr}
}

// enqueue hands one fully encoded frame to the sender. It returns once
// the frame is queued; the flush (possibly run by this goroutine)
// delivers it in order.
func (s *connSender) enqueue(w *wire.Writer) {
	s.enqueueOut(outFrame{w: w})
}

// enqueueOut hands one frame of any shape to the sender, transferring
// ownership of its writer, body buffer and file handle.
func (s *connSender) enqueueOut(f outFrame) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		f.done()
		return
	}
	s.queue = append(s.queue, f)
	if s.active {
		s.mu.Unlock()
		return
	}
	s.active = true
	s.mu.Unlock()
	s.flush()
}

func (s *connSender) flush() {
	for {
		s.mu.Lock()
		if s.dead || len(s.queue) == 0 {
			q := s.queue
			s.queue = nil
			s.active = false
			s.mu.Unlock()
			for i := range q {
				q[i].done()
			}
			return
		}
		batch := s.queue
		s.queue = s.spare[:0]
		s.spare = nil
		s.mu.Unlock()

		err := s.send(batch)
		for i := range batch {
			batch[i].done()
			batch[i] = outFrame{}
		}
		if err != nil {
			s.fail(err)
			return
		}
		s.mu.Lock()
		s.spare = batch[:0]
		s.mu.Unlock()
	}
}

// send transmits one drained batch in a single SendFrames call, in
// queue order — a stream's data frames and its trailer ride the same
// queue — and counts how the payload bytes traveled. A request whose
// caller already abandoned it (see pendingCall.wire) is skipped; the
// others are marked sent before the transport sees them, and unmarked
// again if it refused the batch before writing a byte.
func (s *connSender) send(batch []outFrame) error {
	var vecFrames, vecBytes, fileFrames int64
	for i := range batch {
		f := &batch[i]
		if f.pc != nil && !f.pc.wire.CompareAndSwap(reqUnsent, reqSent) {
			continue
		}
		s.frames = append(s.frames, transport.Frame{Head: f.w.Bytes(), Body: f.body, File: f.file, FileN: f.fileN})
		if f.body != nil {
			vecFrames++
			vecBytes += int64(len(f.body))
		}
		if f.file != nil {
			fileFrames++
		}
	}
	var spliced int64
	var err error
	if len(s.frames) > 0 {
		spliced, err = s.conn.SendFrames(s.frames)
	}
	clear(s.frames)
	s.frames = s.frames[:0]
	if errors.Is(err, transport.ErrNotSent) {
		for i := range batch {
			if pc := batch[i].pc; pc != nil {
				pc.wire.CompareAndSwap(reqSent, reqUnsent)
			}
		}
	}
	if vecFrames > 0 {
		mSendVecFrames.Add(vecFrames)
		mSendVecBytes.Add(vecBytes)
	}
	if spliced > 0 {
		mSendSendfileFrames.Add(fileFrames)
		mSendSendfileBytes.Add(spliced)
	}
	return err
}

// fail marks the sender dead, discards queued frames, and reports err
// through onErr exactly once.
func (s *connSender) fail(err error) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return
	}
	s.dead = true
	q := s.queue
	s.queue = nil
	s.active = false
	s.mu.Unlock()
	for i := range q {
		q[i].done()
	}
	if s.onErr != nil {
		s.onErr(err)
	}
}
