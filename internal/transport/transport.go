// Package transport defines the message transport that every Globe
// protocol in this repository runs over: location-service requests,
// replication traffic between local representatives (the paper's GRP),
// object-server commands, and the mini-DNS used by the name service.
//
// Two interchangeable implementations exist: the simulated wide-area
// network in package netsim (used by tests, benchmarks and experiments,
// with virtual latency accounting and byte metering) and the TCP framing
// transport in this package (used by the cmd/ daemons on real sockets).
// Code above this layer cannot tell them apart, which is how the same
// GDN stack runs both in-process worldwide simulations and real
// multi-process deployments.
package transport

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// A Conn is a bidirectional, ordered, message-oriented connection: a
// reliable, in-order frame stream. Frames are delivered whole, exactly
// once and in the order they were sent, or the connection fails; no
// implementation reorders, duplicates or silently skips a frame (the
// simulated network holds frames back instead, the way TCP
// retransmits). Send, SendFrames and Recv are each safe for concurrent
// use: any number of goroutines may send (each call's frames go out
// contiguously, never interleaved with another call's) and any number
// may Recv (each frame is delivered to exactly one receiver). The
// multiplexed RPC layer relies on this: many callers send on one
// shared connection while a single demux goroutine receives.
type Conn interface {
	// Send transmits one frame.
	Send(p []byte) error
	// SendFrames transmits frames in order as one operation — on TCP,
	// one vectored write, with file sections spliced by sendfile(2).
	// Every frame is checked against MaxFrame before any byte is
	// written, so ErrFrameSize leaves the connection usable; after any
	// other error it is not. A failure that wrote no byte of the call
	// matches ErrNotSent. The frames' buffers are only read during
	// the call and each file's offset advances by exactly its FileN.
	// spliced counts the file bytes the kernel moved without a
	// user-space copy; it is 0 on transports that read file sections
	// into memory.
	SendFrames(frames []Frame) (spliced int64, err error)
	// Recv blocks for the next frame. The returned cost is the virtual
	// network cost of delivering the frame (propagation plus
	// transmission) on simulated networks, and zero on real ones.
	Recv() (p []byte, cost time.Duration, err error)
	// Close releases the connection and unblocks pending Recv calls.
	Close() error
	// LocalAddr and RemoteAddr return transport addresses, in the
	// "site:service" form for simulated networks and "host:port" for TCP.
	LocalAddr() string
	RemoteAddr() string
}

// A Frame is one outbound frame in a SendFrames call. On the wire it is
// Head, then Body, then FileN bytes read from File at its current
// offset; the peer's Recv sees their concatenation as one buffer. Body
// and File are optional. This is the zero-copy handoff the bulk data
// plane rides on: the RPC layer passes a small frame header plus a
// chunk buffer or an open chunk file, and the transport writes the
// parts vectored, splices the file, or gathers them once into the
// buffer it delivers or seals.
type Frame struct {
	Head  []byte
	Body  []byte
	File  *os.File
	FileN int64
}

// Len is the frame's size on the wire.
func (f *Frame) Len() int64 { return int64(len(f.Head)) + int64(len(f.Body)) + f.FileN }

// ReadInto gathers the frame into p, which must be exactly f.Len()
// bytes: Head and Body are copied and the file section is read
// straight into place, advancing File's offset by FileN.
func (f *Frame) ReadInto(p []byte) error {
	off := copy(p, f.Head)
	off += copy(p[off:], f.Body)
	if f.File == nil {
		return nil
	}
	_, err := io.ReadFull(f.File, p[off:])
	return err
}

// CheckFrames reports ErrFrameSize when any frame is negative-sized or
// longer than limit, so a SendFrames call can refuse a batch before it
// writes any of it.
func CheckFrames(frames []Frame, limit int) error {
	for i := range frames {
		if n := frames[i].Len(); frames[i].FileN < 0 || n > int64(limit) {
			return fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
		}
	}
	return nil
}

// A Listener accepts inbound connections for one transport address.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// A Network creates listeners and connections. The from argument to
// Dial names the calling site on simulated networks so the network can
// price the path; TCP ignores it.
type Network interface {
	Listen(addr string) (Listener, error)
	Dial(from, addr string) (Conn, error)
}

// Errors shared by transport implementations.
var (
	ErrClosed      = errors.New("transport: connection closed")
	ErrNoListener  = errors.New("transport: no listener at address")
	ErrUnreachable = errors.New("transport: destination unreachable")
	ErrFrameSize   = errors.New("transport: frame exceeds size limit")
	// ErrNotSent marks a SendFrames failure that happened before any
	// byte of the call reached the connection, so the peer cannot have
	// seen any of its frames. errors.Is matches it alongside the cause.
	ErrNotSent = errors.New("transport: nothing sent")
)

// notSentError carries a send failure's cause and matches ErrNotSent.
type notSentError struct{ error }

func (e notSentError) Is(target error) bool { return target == ErrNotSent }
func (e notSentError) Unwrap() error        { return e.error }

// NotSent marks err as a failure that wrote nothing; see ErrNotSent.
func NotSent(err error) error { return notSentError{err} }

// MaxFrame bounds a single frame. It is sized for one file chunk plus
// protocol overhead; anything larger indicates a protocol bug or an
// attack and is refused at the transport (paper §6.1: servers must not
// be crashable by malformed traffic).
const MaxFrame = 20 << 20
