package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
)

// pair returns a connected client/server conn over localhost TCP.
func pair(t *testing.T) (Conn, Conn) {
	t.Helper()
	var tcp TCP
	l, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	type accepted struct {
		conn Conn
		err  error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		acc <- accepted{c, err}
	}()
	client, err := tcp.Dial("ignored-site", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	a := <-acc
	if a.err != nil {
		t.Fatal(a.err)
	}
	t.Cleanup(func() { a.conn.Close() })
	return client, a.conn
}

func TestTCPRoundTripAndOrdering(t *testing.T) {
	client, server := pair(t)
	const frames = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < frames; i++ {
			payload := bytes.Repeat([]byte{byte(i)}, i*37+1)
			if err := client.Send(payload); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < frames; i++ {
		got, cost, err := server.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if cost != 0 {
			t.Fatal("real TCP reports no virtual cost")
		}
		if len(got) != i*37+1 || got[0] != byte(i) {
			t.Fatalf("frame %d out of order or corrupt", i)
		}
	}
	wg.Wait()
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	client, server := pair(t)
	done := make(chan error, 1)
	go func() {
		_, _, err := server.Recv()
		done <- err
	}()
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("Recv must fail after the peer closes")
	}
}

func TestTCPFrameSizeBound(t *testing.T) {
	client, _ := pair(t)
	if err := client.Send(make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("err = %v, want ErrFrameSize", err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	var tcp TCP
	if _, err := tcp.Dial("", "127.0.0.1:1"); err == nil {
		t.Fatal("dialing a closed port must fail")
	}
}

// addrConn is a wire whose peer address is addr, which may be nil.
type addrConn struct {
	net.Conn
	addr net.Addr
}

func (c addrConn) RemoteAddr() net.Addr { return c.addr }

// TestRemoteAddrFormattedOnce: the rpc server stamps the peer address
// on every request, so a framed conn formats it once, and a wire with
// no peer address reads as "".
func TestRemoteAddrFormattedOnce(t *testing.T) {
	c := NewFramedConn(addrConn{addr: &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4242}})
	if got := c.RemoteAddr(); got != "127.0.0.1:4242" {
		t.Fatalf("RemoteAddr = %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { c.RemoteAddr() }); n != 0 {
		t.Fatalf("RemoteAddr allocates %v times per call", n)
	}
	if got := NewFramedConn(addrConn{}).RemoteAddr(); got != "" {
		t.Fatalf("RemoteAddr without an address = %q", got)
	}
}
