package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCP is the real-socket implementation of Network. Frames are
// length-prefixed with a big-endian 32-bit size. It carries no virtual
// cost information; wall-clock time is the measurement on real networks.
type TCP struct{}

// Listen starts a TCP listener on addr ("host:port"; empty host binds
// all interfaces, port 0 picks a free port).
func (TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

// Dial connects to addr. The from site name is ignored on real networks.
func (TCP) Dial(from, addr string) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return NewFramedConn(c), nil
}

type tcpListener struct {
	l net.Listener
}

func (tl *tcpListener) Accept() (Conn, error) {
	c, err := tl.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewFramedConn(c), nil
}

func (tl *tcpListener) Close() error { return tl.l.Close() }
func (tl *tcpListener) Addr() string { return tl.l.Addr().String() }

// recvBufSize is the buffered-reader size for inbound frames. Most
// protocol frames (location-service records, replication control
// messages) are far smaller than this, so one read syscall typically
// delivers several pipelined frames.
const recvBufSize = 64 << 10

// framedConn adapts a stream connection to the frame-oriented Conn
// interface with 32-bit length prefixes.
//
// Lock scope: sendMu guards the send scratch and the write side of c so
// concurrent senders cannot interleave a prefix from one frame with the
// payload of another; recvMu guards recvHdr and br. The two sides are
// independent, so a sender never blocks a receiver.
type framedConn struct {
	c net.Conn
	// splice is set on TCP sockets, where io.CopyN from an *os.File
	// becomes sendfile(2) inside net.TCPConn.ReadFrom.
	splice bool

	sendMu   sync.Mutex
	wrote    bool        // some byte of the current call reached the socket
	prefixes []byte      // one 4-byte length prefix per frame of a call
	iov      net.Buffers // parts gathered for the next writev
	wv       net.Buffers // the vector being written (WriteTo consumes it)

	recvMu  sync.Mutex
	recvHdr [4]byte
	br      *bufio.Reader

	closed   sync.Once
	closeErr error
}

// NewFramedConn wraps a stream connection (TCP, a net.Pipe end, or a
// security channel's underlying socket) as a frame-oriented Conn.
func NewFramedConn(c net.Conn) Conn {
	_, splice := c.(*net.TCPConn)
	return &framedConn{c: c, splice: splice, br: bufio.NewReaderSize(c, recvBufSize)}
}

// Send transmits the length prefix and payload as one vectored write
// (writev on TCP), so a frame costs a single syscall instead of two and
// small frames are never split across segments by the framing layer.
func (f *framedConn) Send(p []byte) error {
	_, err := f.SendFrames([]Frame{{Head: p}})
	return err
}

// SendFrames writes every length prefix, header and body as one
// vectored write. A file section ends the vector: what is gathered so
// far is written, the section is copied with io.CopyN — spliced by
// sendfile(2) on a TCP socket, so chunk bytes move disk→socket without
// entering user space — and gathering resumes after it.
func (f *framedConn) SendFrames(frames []Frame) (spliced int64, err error) {
	if err := CheckFrames(frames, MaxFrame); err != nil {
		return 0, err
	}
	f.sendMu.Lock()
	defer f.sendMu.Unlock()
	f.wrote = false
	if cap(f.prefixes) < 4*len(frames) {
		f.prefixes = make([]byte, 4*len(frames))
	}
	for i := range frames {
		fr := &frames[i]
		prefix := f.prefixes[4*i : 4*i+4]
		binary.BigEndian.PutUint32(prefix, uint32(fr.Len()))
		f.iov = append(f.iov, prefix, fr.Head)
		if len(fr.Body) > 0 {
			f.iov = append(f.iov, fr.Body)
		}
		if fr.File == nil {
			continue
		}
		if err := f.writev(); err != nil {
			return spliced, err
		}
		n, err := io.CopyN(f.c, fr.File, fr.FileN)
		if f.splice {
			spliced += n
		}
		if err != nil {
			return spliced, f.sendErr(err, n)
		}
	}
	return spliced, f.writev()
}

// writev writes the gathered parts and empties the vector, dropping its
// references to the callers' buffers. Caller holds sendMu.
func (f *framedConn) writev() error {
	f.wv = f.iov
	n, err := f.wv.WriteTo(f.c)
	clear(f.iov)
	f.iov, f.wv = f.iov[:0], nil
	return f.sendErr(err, n)
}

// sendErr records that n bytes of the current call went out and marks
// a failure that no byte of the call preceded as ErrNotSent. Caller
// holds sendMu.
func (f *framedConn) sendErr(err error, n int64) error {
	if err != nil && n == 0 && !f.wrote {
		return NotSent(err)
	}
	f.wrote = f.wrote || n > 0
	return err
}

func (f *framedConn) Recv() ([]byte, time.Duration, error) {
	f.recvMu.Lock()
	defer f.recvMu.Unlock()
	if _, err := io.ReadFull(f.br, f.recvHdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(f.recvHdr[:])
	if n > MaxFrame {
		f.c.Close()
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
	}
	p := GetFrame(int(n))
	if _, err := io.ReadFull(f.br, p); err != nil {
		putFrame(p)
		return nil, 0, err
	}
	return p, 0, nil
}

// putFrame releases the frame of a failed receive. It is a variable
// only so the fuzz target can count releases.
var putFrame = PutFrame

func (f *framedConn) Close() error {
	f.closed.Do(func() { f.closeErr = f.c.Close() })
	return f.closeErr
}

func (f *framedConn) LocalAddr() string  { return f.c.LocalAddr().String() }
func (f *framedConn) RemoteAddr() string { return f.c.RemoteAddr().String() }
