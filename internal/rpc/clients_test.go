package rpc

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gdn/internal/transport"
)

// holdNet wraps a Network so that a dialed connection's receive
// failure stays hidden from its demux goroutine until gate closes. It
// freezes the window in which a shared connection's peer is gone but
// the client has not noticed yet, so the next request rides the dead
// connection every time instead of only when it wins a race.
type holdNet struct {
	transport.Network
	gate chan struct{}
}

func (h *holdNet) Dial(from, addr string) (transport.Conn, error) {
	c, err := h.Network.Dial(from, addr)
	if err != nil {
		return nil, err
	}
	return &holdConn{Conn: c, gate: h.gate}, nil
}

type holdConn struct {
	transport.Conn
	gate chan struct{}
}

func (c *holdConn) Recv() ([]byte, time.Duration, error) {
	p, cost, err := c.Conn.Recv()
	if err != nil {
		<-c.gate
	}
	return p, cost, err
}

// resetTCP is TCP whose accepted connections close with a reset
// (SO_LINGER 0), as a crashed peer's host answers a connection it no
// longer knows: the client's next write fails before a byte of it
// goes out. A peer that closes gracefully leaves a write into the
// half-closed socket with an unknown fate instead; that case surfaces
// as an error and is not what this network models.
type resetTCP struct{ transport.TCP }

func (resetTCP) Listen(addr string) (transport.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return resetListener{l}, nil
}

type resetListener struct{ l net.Listener }

func (rl resetListener) Accept() (transport.Conn, error) {
	c, err := rl.l.Accept()
	if err != nil {
		return nil, err
	}
	c.(*net.TCPConn).SetLinger(0)
	return transport.NewFramedConn(c), nil
}

func (rl resetListener) Close() error { return rl.l.Close() }
func (rl resetListener) Addr() string { return rl.l.Addr().String() }

// TestSharedConnRidesOutPeerRestart: a server restarts at the same
// address while a table's shared connection to it is still believed
// alive. Through the table, the first read after the restart — unary
// and streamed — succeeds, and a write runs its handler exactly once:
// each request is refused by the dead connection before a byte goes
// out, fails as provably unsent, and is redialed.
func TestSharedConnRidesOutPeerRestart(t *testing.T) {
	const (
		opRead uint16 = iota + 1
		opWrite
		opStream
	)
	for _, tc := range []struct {
		name string
		net  func(t *testing.T) (transport.Network, string)
	}{
		{"netsim", func(t *testing.T) (transport.Network, string) { return simNet(t), "server:restart" }},
		{"tcp", func(t *testing.T) (transport.Network, string) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := l.Addr().String()
			l.Close()
			return resetTCP{}, addr
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, addr := tc.net(t)
			gate := make(chan struct{})
			t.Cleanup(func() { close(gate) })
			hn := &holdNet{Network: base, gate: gate}

			var writes atomic.Int64
			handler := func(c *Call) ([]byte, error) {
				switch c.Op {
				case opWrite:
					writes.Add(1)
				case opStream:
					sw, err := c.OpenStream()
					if err != nil {
						return nil, err
					}
					if err := sw.Send([]byte("frame")); err != nil {
						return nil, err
					}
				}
				return []byte("ok"), nil
			}
			srv, err := Serve(hn, addr, handler)
			if err != nil {
				t.Fatal(err)
			}
			restart := func() {
				t.Helper()
				srv.Close()
				if srv, err = Serve(hn, addr, handler); err != nil {
					t.Fatal(err)
				}
			}
			t.Cleanup(func() { srv.Close() })

			tbl := NewClients(hn, "client", WithTimeout(5*time.Second))
			defer tbl.Close()
			if _, _, err := tbl.Get(addr).Call(opRead, nil); err != nil {
				t.Fatal(err)
			}

			restart()
			if resp, _, err := tbl.Get(addr).Call(opRead, nil); err != nil || string(resp) != "ok" {
				t.Fatalf("first read after restart: %q, %v", resp, err)
			}

			restart()
			st, err := tbl.Get(addr).CallStream(opStream, nil)
			if err != nil {
				t.Fatalf("first stream after restart: %v", err)
			}
			if p, _, err := st.Recv(); err != nil || string(p) != "frame" {
				t.Fatalf("first stream after restart: %q, %v", p, err)
			}
			if _, _, err := st.Recv(); err != io.EOF {
				t.Fatalf("stream end: %v", err)
			}
			st.Close()

			restart()
			if _, _, err := tbl.Get(addr).Call(opWrite, nil); err != nil {
				t.Fatalf("first write after restart: %v", err)
			}
			if n := writes.Load(); n != 1 {
				t.Fatalf("write handler ran %d times, want exactly 1", n)
			}
		})
	}
}
