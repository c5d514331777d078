package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdn/internal/netsim"
	"gdn/internal/obs"
	"gdn/internal/transport"
)

func simNet(t *testing.T) *netsim.Network {
	t.Helper()
	n := netsim.New(nil)
	n.AddSite("client", "c", "eu")
	n.AddSite("server", "s", "us")
	n.AddSite("backend", "b", "ap")
	return n
}

func echoHandler(c *Call) ([]byte, error) {
	return append([]byte{byte(c.Op)}, c.Body...), nil
}

func TestCallRoundTrip(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:echo", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClient(n, "client", "server:echo")
	defer cl.Close()
	resp, cost, err := cl.Call(obs.SpanContext{}, 7, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, append([]byte{7}, []byte("ping")...)) {
		t.Fatalf("resp = %q", resp)
	}
	if cost <= 0 {
		t.Fatal("cost must include request+response frames")
	}
}

func TestRemoteError(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:err", func(c *Call) ([]byte, error) {
		return nil, fmt.Errorf("no such object %q", string(c.Body))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClient(n, "client", "server:err")
	defer cl.Close()
	_, _, err = cl.Call(obs.SpanContext{}, 1, []byte("x"))
	if err == nil {
		t.Fatal("expected remote error")
	}
	if !IsRemote(err) {
		t.Fatalf("error not recognized as remote: %v", err)
	}
	if !strings.Contains(err.Error(), `no such object "x"`) {
		t.Fatalf("error text lost: %v", err)
	}
}

func TestHandlerPanicIsolated(t *testing.T) {
	n := simNet(t)
	calls := 0
	srv, err := Serve(n, "server:p", func(c *Call) ([]byte, error) {
		calls++
		if c.Op == 666 {
			panic("boom")
		}
		return []byte("ok"), nil
	}, WithServerLog(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClient(n, "client", "server:p")
	defer cl.Close()
	if _, _, err := cl.Call(obs.SpanContext{}, 666, nil); !IsRemote(err) {
		t.Fatalf("panic not converted to remote error: %v", err)
	}
	// The server must still serve subsequent requests.
	resp, _, err := cl.Call(obs.SpanContext{}, 1, nil)
	if err != nil || string(resp) != "ok" {
		t.Fatalf("server dead after panic: %v %q", err, resp)
	}
	if calls != 2 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestCostPropagation(t *testing.T) {
	n := simNet(t)
	// backend is a leaf service.
	back, err := Serve(n, "backend:leaf", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()

	// server forwards to backend and charges the nested cost.
	backCl := NewClient(n, "server", "backend:leaf")
	defer backCl.Close()
	front, err := Serve(n, "server:front", func(c *Call) ([]byte, error) {
		resp, cost, err := backCl.Call(obs.SpanContext{}, c.Op, c.Body)
		if err != nil {
			return nil, err
		}
		c.Charge(cost)
		return resp, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	// Direct call to backend from client for comparison.
	directCl := NewClient(n, "client", "backend:leaf")
	defer directCl.Close()
	_, directCost, err := directCl.Call(obs.SpanContext{}, 1, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}

	cl := NewClient(n, "client", "server:front")
	defer cl.Close()
	_, chainCost, err := cl.Call(obs.SpanContext{}, 1, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	// The chained call crosses client->server and server->backend, so it
	// must cost strictly more than the direct client->backend call.
	if chainCost <= directCost {
		t.Fatalf("chain cost %v not greater than direct %v", chainCost, directCost)
	}
}

func TestConcurrentCalls(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:conc", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClient(n, "client", "server:conc")
	defer cl.Close()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := []byte{byte(i)}
			resp, _, err := cl.Call(obs.SpanContext{}, uint16(i), body)
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			want := append([]byte{byte(i)}, body...)
			if !bytes.Equal(resp, want) {
				t.Errorf("call %d: resp %q want %q", i, resp, want)
			}
		}(i)
	}
	wg.Wait()
}

// countingNet wraps a Network and counts dials, so tests can observe
// connection sharing without reaching into client internals.
type countingNet struct {
	transport.Network
	dials atomic.Int64
}

func (c *countingNet) Dial(from, addr string) (transport.Conn, error) {
	c.dials.Add(1)
	return c.Network.Dial(from, addr)
}

func TestConnReuse(t *testing.T) {
	n := &countingNet{Network: simNet(t)}
	srv, err := Serve(n, "server:reuse", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClient(n, "client", "server:reuse", WithMaxConns(1))
	defer cl.Close()
	for i := 0; i < 50; i++ {
		if _, _, err := cl.Call(obs.SpanContext{}, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if d := n.dials.Load(); d != 1 {
		t.Fatalf("sequential calls dialed %d conns, want 1", d)
	}
}

func TestConcurrentCallsShareOneConn(t *testing.T) {
	// The mux must carry many in-flight calls over the single shared
	// connection, not open one per concurrent caller.
	n := &countingNet{Network: simNet(t)}
	srv, err := Serve(n, "server:share", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClient(n, "client", "server:share")
	defer cl.Close()
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, _, err := cl.Call(obs.SpanContext{}, 1, []byte("x")); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if d := n.dials.Load(); d != 1 {
		t.Fatalf("64 concurrent callers dialed %d conns, want 1", d)
	}
}

func TestServerCloseFailsCalls(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:close", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(n, "client", "server:close")
	defer cl.Close()
	if _, _, err := cl.Call(obs.SpanContext{}, 1, nil); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	cl.Timeout = 2 * time.Second
	if _, _, err := cl.Call(obs.SpanContext{}, 1, nil); err == nil {
		t.Fatal("call succeeded after server close")
	}
}

func TestClientRecoversAfterServerRestart(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:restart", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(n, "client", "server:restart")
	cl.Timeout = 2 * time.Second
	defer cl.Close()
	if _, _, err := cl.Call(obs.SpanContext{}, 1, nil); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// First call may fail while the pool drains broken conns.
	cl.Call(obs.SpanContext{}, 1, nil)

	srv2, err := Serve(n, "server:restart", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	var ok bool
	for i := 0; i < 5; i++ {
		if _, _, err := cl.Call(obs.SpanContext{}, 1, nil); err == nil {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("client did not recover after server restart")
	}
}

func TestUnreachableServer(t *testing.T) {
	n := simNet(t)
	cl := NewClient(n, "client", "server:none")
	defer cl.Close()
	if _, _, err := cl.Call(obs.SpanContext{}, 1, nil); !errors.Is(err, transport.ErrNoListener) {
		t.Fatalf("err = %v, want ErrNoListener", err)
	}
}

func TestCallTimeout(t *testing.T) {
	n := simNet(t)
	block := make(chan struct{})
	srv, err := Serve(n, "server:slow", func(c *Call) ([]byte, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(block)

	cl := NewClient(n, "client", "server:slow")
	cl.Timeout = 50 * time.Millisecond
	defer cl.Close()
	start := time.Now()
	_, _, err = cl.Call(obs.SpanContext{}, 1, nil)
	if err == nil {
		t.Fatal("expected timeout")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout took too long")
	}
}

func TestMalformedFrameClosesConnNotServer(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:mal", echoHandler, WithServerLog(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Send garbage directly over the transport.
	c, err := n.Dial("client", "server:mal")
	if err != nil {
		t.Fatal(err)
	}
	c.Send([]byte{0xde, 0xad})
	c.Close()

	// A well-formed client must still work.
	cl := NewClient(n, "client", "server:mal")
	defer cl.Close()
	if _, _, err := cl.Call(obs.SpanContext{}, 1, []byte("fine")); err != nil {
		t.Fatalf("server unusable after malformed frame: %v", err)
	}
}

func TestWrapperInstallsPrincipal(t *testing.T) {
	n := simNet(t)
	wrapper := func(c transport.Conn) (transport.Conn, string, error) {
		return c, "moderator-1", nil
	}
	srv, err := Serve(n, "server:auth", func(c *Call) ([]byte, error) {
		return []byte(c.Peer), nil
	}, WithServerWrapper(wrapper))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClient(n, "client", "server:auth")
	defer cl.Close()
	resp, _, err := cl.Call(obs.SpanContext{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "moderator-1" {
		t.Fatalf("peer = %q", resp)
	}
}

func TestWrapperRejectionDropsConn(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:deny", echoHandler,
		WithServerWrapper(func(c transport.Conn) (transport.Conn, string, error) {
			return nil, "", errors.New("handshake refused")
		}),
		WithServerLog(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClient(n, "client", "server:deny")
	cl.Timeout = time.Second
	defer cl.Close()
	if _, _, err := cl.Call(obs.SpanContext{}, 1, nil); err == nil {
		t.Fatal("call succeeded through refused handshake")
	}
}

func TestOverTCP(t *testing.T) {
	// The same stack must run over real sockets.
	var tcp transport.TCP
	srv, err := Serve(tcp, "127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClient(tcp, "", srv.Addr())
	defer cl.Close()
	resp, cost, err := cl.Call(obs.SpanContext{}, 9, []byte("tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, append([]byte{9}, []byte("tcp")...)) {
		t.Fatalf("resp = %q", resp)
	}
	if cost != 0 {
		t.Fatalf("TCP transport reported virtual cost %v", cost)
	}
}

// muxStress hammers one client from many goroutines and verifies every
// response is routed back to its own caller (run under -race).
func TestMuxStress(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:stress", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClient(n, "client", "server:stress")
	defer cl.Close()
	const goroutines = 100
	const calls = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				op := uint16(g*calls + i)
				body := []byte{byte(g), byte(i)}
				resp, _, err := cl.Call(obs.SpanContext{}, op, body)
				if err != nil {
					t.Errorf("g%d call %d: %v", g, i, err)
					return
				}
				want := append([]byte{byte(op)}, body...)
				if !bytes.Equal(resp, want) {
					t.Errorf("g%d call %d: cross-routed response %q, want %q", g, i, resp, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConnDropFailsInFlight drops the connection under a batch of
// in-flight calls and requires every one of them to return an error
// promptly instead of hanging on the pending table.
func TestConnDropFailsInFlight(t *testing.T) {
	n := simNet(t)
	release := make(chan struct{})
	started := make(chan struct{}, 64)
	srv, err := Serve(n, "server:drop", func(c *Call) ([]byte, error) {
		started <- struct{}{}
		<-release
		return []byte("late"), nil
	}, WithServerLog(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)

	cl := NewClient(n, "client", "server:drop")
	defer cl.Close()
	const inFlight = 16
	errs := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		go func(i int) {
			_, _, err := cl.Call(obs.SpanContext{}, uint16(i), nil)
			errs <- err
		}(i)
	}
	// Wait until every call is in a handler, then kill the server (which
	// closes its tracked conns).
	for i := 0; i < inFlight; i++ {
		<-started
	}
	srv.Close()
	for i := 0; i < inFlight; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("in-flight call succeeded across a dropped connection")
			}
			if IsRemote(err) {
				t.Fatalf("conn drop surfaced as remote error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("in-flight call hung after connection drop")
		}
	}
}

// TestTimeoutLeavesPendingTableClean checks the deadline sweeper: a
// timed-out call must leave no pending entry behind, and — as long as
// the connection is carrying other live traffic — the shared
// connection must remain usable for later calls.
func TestTimeoutLeavesPendingTableClean(t *testing.T) {
	n := simNet(t)
	block := make(chan struct{})
	srv, err := Serve(n, "server:sweep", func(c *Call) ([]byte, error) {
		if c.Op == 2 {
			<-block
		}
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClient(n, "client", "server:sweep")
	defer cl.Close()
	// Establish the shared conn.
	if _, _, err := cl.Call(obs.SpanContext{}, 1, nil); err != nil {
		t.Fatal(err)
	}
	mc := cl.slots[0].mc.Load()
	if mc == nil {
		t.Fatal("shared conn vanished")
	}

	// Set the timeout before the background caller starts: Call reads
	// it unsynchronized, so writing it later would race.
	cl.Timeout = 50 * time.Millisecond

	// Keep fast traffic flowing on the same connection so it shows
	// signs of life while the op-2 calls hang and time out.
	stopFast := make(chan struct{})
	fastDone := make(chan struct{})
	go func() {
		defer close(fastDone)
		for {
			select {
			case <-stopFast:
				return
			default:
				cl.Call(obs.SpanContext{}, 1, nil)
				time.Sleep(time.Millisecond)
			}
		}
	}()

	const timedOut = 8
	var wg sync.WaitGroup
	for i := 0; i < timedOut; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := cl.Call(obs.SpanContext{}, 2, nil); err == nil {
				t.Error("blocked call did not time out")
			}
		}()
	}
	wg.Wait()
	close(stopFast)
	<-fastDone

	deadline := time.Now().Add(5 * time.Second)
	for {
		left := mc.pendingLen()
		inflight := mc.inflight.Load()
		if left == 0 && inflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending table dirty after timeouts: %d entries, inflight %d", left, inflight)
		}
		time.Sleep(time.Millisecond)
	}
	if mc.dead.Load() {
		t.Fatal("timeout killed a connection that was carrying live traffic")
	}

	// Release the stuck handlers; their late responses must be dropped,
	// and the same connection must serve fresh calls correctly.
	close(block)
	cl.Timeout = 5 * time.Second
	resp, _, err := cl.Call(obs.SpanContext{}, 3, nil)
	if err != nil || string(resp) != "ok" {
		t.Fatalf("conn unusable after timeouts: %v %q", err, resp)
	}
	if got := cl.slots[0].mc.Load(); got != mc {
		t.Fatal("client redialed instead of reusing the live conn after timeouts")
	}
}

// TestWedgedConnCondemnedAndRedialed covers the transport-wedge path:
// when a connection is completely silent for an expired call's whole
// timeout window, the sweeper condemns it so the next call redials
// instead of piling onto a dead pipe forever.
func TestWedgedConnCondemnedAndRedialed(t *testing.T) {
	n := &countingNet{Network: simNet(t)}
	var wedged atomic.Bool
	wedged.Store(true)
	release := make(chan struct{})
	defer close(release)
	srv, err := Serve(n, "server:wedge", func(c *Call) ([]byte, error) {
		if wedged.Load() {
			<-release // swallow every request: the conn goes silent
		}
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClient(n, "client", "server:wedge")
	cl.Timeout = 50 * time.Millisecond
	defer cl.Close()
	if _, _, err := cl.Call(obs.SpanContext{}, 1, nil); err == nil {
		t.Fatal("call through wedged server succeeded")
	}
	mc := cl.slots[0].mc.Load()
	deadline := time.Now().Add(5 * time.Second)
	for !mc.dead.Load() {
		if time.Now().After(deadline) {
			t.Fatal("silent connection was not condemned")
		}
		time.Sleep(time.Millisecond)
	}

	// Server recovers; the client must redial and succeed.
	wedged.Store(false)
	cl.Timeout = 5 * time.Second
	resp, _, err := cl.Call(obs.SpanContext{}, 1, nil)
	if err != nil || string(resp) != "ok" {
		t.Fatalf("client did not recover from wedged conn: %v %q", err, resp)
	}
	if d := n.dials.Load(); d != 2 {
		t.Fatalf("dials = %d, want 2 (original + redial)", d)
	}
}

func TestLargeBody(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:big", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:big")
	defer cl.Close()
	body := bytes.Repeat([]byte("a"), 4<<20)
	resp, _, err := cl.Call(obs.SpanContext{}, 1, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != len(body)+1 {
		t.Fatalf("len(resp) = %d", len(resp))
	}
}
