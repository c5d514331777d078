package rpc

import (
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gdn/internal/obs"
	"gdn/internal/transport"
)

// dialRaw opens a bare connection to a served address, so a test can
// write request frames the Client would never produce.
func dialRaw(t *testing.T, net transport.Network, addr string) transport.Conn {
	t.Helper()
	conn, err := net.Dial("client", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func sendRaw(t *testing.T, conn transport.Conn, id uint64, op uint16, body []byte) {
	t.Helper()
	w := encodeRequest(id, op, body, obs.SpanContext{})
	defer w.Free()
	if err := conn.Send(w.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// awaitResponse reads frames until a final response for id arrives,
// reporting false if the connection closes first.
func awaitResponse(t *testing.T, conn transport.Conn, id uint64) bool {
	t.Helper()
	for {
		frame, _, err := conn.Recv()
		if err != nil {
			return false
		}
		got, status, _, _, _, derr := decodeResponse(frame)
		if derr != nil {
			t.Fatalf("malformed response: %v", derr)
		}
		if got == id && (status == statusOK || status == statusErr) {
			return true
		}
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// handlerCount counts handlers that started and returned.
type handlerCount struct{ started, finished atomic.Int32 }

func (h *handlerCount) enter() func() {
	h.started.Add(1)
	return func() { h.finished.Add(1) }
}

func (h *handlerCount) allReturned() bool { return h.finished.Load() == h.started.Load() }

// A second upload opened under a live request ID condemns the
// connection; teardown then still reaches the first upload's handler,
// which would otherwise stay parked in Recv for good.
func TestDuplicateUploadIDReleasedOnTeardown(t *testing.T) {
	n := simNet(t)
	var hc handlerCount
	srv, err := Serve(n, "server:dupup", func(c *Call) ([]byte, error) {
		if c.Upload() == nil {
			return c.Body, nil
		}
		defer hc.enter()()
		for {
			if _, err := c.Upload().Recv(); err != nil {
				return nil, err
			}
		}
	}, WithServerLog(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	conn := dialRaw(t, n, "server:dupup")
	open := encodeUploadOpen(7, nil)
	sendRaw(t, conn, 1, opUploadOpen, open)
	waitUntil(t, "first upload handler", func() bool { return hc.started.Load() == 1 })
	sendRaw(t, conn, 1, opUploadOpen, open)
	// The ping is read after the duplicate open, so once it is answered
	// (or the connection is gone) the server has acted on the duplicate.
	ping := encodeRequest(2, 1, []byte("ping"), obs.SpanContext{})
	if conn.Send(ping.Bytes()) == nil {
		awaitResponse(t, conn, 2)
	}
	ping.Free()
	conn.Close()
	srv.Close()
	waitUntil(t, "every upload handler returned", hc.allReturned)
}

// A unary request reusing a live download stream's ID must not unlink
// that stream from the server's table: its handler, parked on credit,
// has to be released when the connection is torn down.
func TestUnaryReusingStreamIDLeavesStreamReleasable(t *testing.T) {
	n := simNet(t)
	var hc handlerCount
	srv, err := Serve(n, "server:dupdown", func(c *Call) ([]byte, error) {
		if c.Op != 2 {
			return c.Body, nil
		}
		defer hc.enter()()
		sw, err := c.OpenStream()
		if err != nil {
			return nil, err
		}
		for {
			if err := sw.Send([]byte("x")); err != nil {
				return nil, err
			}
		}
	}, WithServerLog(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	conn := dialRaw(t, n, "server:dupdown")
	sendRaw(t, conn, 5, 2, nil)
	for i := 0; i < streamWindow; i++ { // the window fills; the handler parks
		if _, _, err := conn.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	sendRaw(t, conn, 5, 1, []byte("ping"))
	if !awaitResponse(t, conn, 5) {
		t.Fatal("unary call reusing the stream's ID was not answered")
	}
	conn.Close()
	srv.Close()
	waitUntil(t, "the stream handler returned", hc.allReturned)
}

// One per-connection cap covers streams in both directions: with
// maxConnRequests/2 of them parked, the next open in either direction
// is refused with ErrTooManyStreams, unary calls are still answered,
// and closing the connection releases every parked handler.
func TestStreamCapCoversBothDirections(t *testing.T) {
	n := simNet(t)
	var hc handlerCount
	var opened atomic.Int32
	srv, err := Serve(n, "server:cap", func(c *Call) ([]byte, error) {
		switch {
		case c.Upload() != nil:
			defer hc.enter()()
			opened.Add(1)
			for {
				if _, err := c.Upload().Recv(); err != nil {
					return nil, err
				}
			}
		case c.Op == 2:
			sw, err := c.OpenStream()
			if err != nil {
				return nil, err
			}
			defer hc.enter()()
			opened.Add(1)
			for {
				if err := sw.Send([]byte("x")); err != nil {
					return nil, err
				}
			}
		}
		return c.Body, nil
	}, WithServerLog(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:cap")
	defer cl.Close()

	const limit = maxConnRequests / 2
	for i := 0; i < limit; i++ {
		if i%2 == 0 {
			st, err := cl.CallStream(obs.SpanContext{}, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
		} else if _, err := cl.CallUpload(obs.SpanContext{}, 3, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "every stream opened", func() bool { return opened.Load() == limit })

	tooMany := func(err error) bool {
		return IsRemote(err) && strings.Contains(err.Error(), ErrTooManyStreams.Error())
	}
	st, err := cl.CallStream(obs.SpanContext{}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, _, err := st.Recv(); !tooMany(err) {
		t.Fatalf("download open over the cap: %v, want remote ErrTooManyStreams", err)
	}
	us, err := cl.CallUpload(obs.SpanContext{}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := us.CloseAndRecv(); !tooMany(err) {
		t.Fatalf("upload open over the cap: %v, want remote ErrTooManyStreams", err)
	}
	if resp, _, err := cl.Call(obs.SpanContext{}, 1, []byte("ping")); err != nil || string(resp) != "ping" {
		t.Fatalf("unary call at the cap: %q, %v", resp, err)
	}

	cl.Close()
	waitUntil(t, "every parked handler returned", hc.allReturned)
	if got := hc.finished.Load(); got != limit {
		t.Fatalf("%d handlers returned, want %d", got, limit)
	}
	if _, _, err := st.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("Recv after the refusal: %v, want io.EOF", err)
	}
}

// A server answering an upload with response-stream data is broken; the
// call fails, and so does a Send parked on the upload's window.
func TestStreamDataOnUploadFailsParkedSend(t *testing.T) {
	n := simNet(t)
	l, err := n.Listen("server:shape")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reply := make(chan struct{})
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		frame, _, err := conn.Recv()
		if err != nil {
			return
		}
		id, _, err := decodeRequest(frame)
		if err != nil {
			return
		}
		<-reply
		w := responseFrame(id, statusStream, "", 0, []byte("x"))
		conn.Send(w.Bytes())
		w.Free()
		for {
			if _, _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()
	cl := NewClient(n, "client", "server:shape")
	defer cl.Close()
	us, err := cl.CallUpload(obs.SpanContext{}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < streamWindow; i++ {
		if err := us.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	parked := make(chan error, 1)
	go func() { parked <- us.Send([]byte("parked")) }()
	close(reply)
	select {
	case err := <-parked:
		if err == nil {
			t.Fatal("Send beyond the window succeeded without credit")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still parked after the call failed")
	}
	if _, _, err := us.CloseAndRecv(); err == nil {
		t.Fatal("CloseAndRecv succeeded on a mis-shaped answer")
	}
}
