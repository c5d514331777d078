package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"gdn/internal/obs"
	"gdn/internal/transport"
)

// streamNFrames returns a handler that streams n frames of the given
// size (each filled with its index) and a trailer naming the count.
func streamNFrames(n, size int) Handler {
	return func(c *Call) ([]byte, error) {
		sw, err := c.OpenStream()
		if err != nil {
			return nil, err
		}
		buf := make([]byte, size)
		for i := 0; i < n; i++ {
			for j := range buf {
				buf[j] = byte(i)
			}
			if err := sw.Send(buf); err != nil {
				return nil, err
			}
		}
		return []byte(fmt.Sprintf("sent %d", n)), nil
	}
}

func TestStreamDeliversFramesInOrder(t *testing.T) {
	n := simNet(t)
	const frames, size = 50, 4 << 10
	srv, err := Serve(n, "server:stream", streamNFrames(frames, size))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:stream")
	defer cl.Close()

	st, err := cl.CallStream(obs.SpanContext{}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := 0
	for {
		p, cost, err := st.Recv()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if cost <= 0 {
			t.Fatal("stream frame lost its virtual cost")
		}
		if len(p) != size || p[0] != byte(got) || p[size-1] != byte(got) {
			t.Fatalf("frame %d corrupted: len %d, first %d", got, len(p), p[0])
		}
		got++
	}
	if got != frames {
		t.Fatalf("received %d frames, want %d", got, frames)
	}
	if string(st.Trailer()) != "sent 50" {
		t.Fatalf("trailer = %q", st.Trailer())
	}
	if st.Cost() <= 0 {
		t.Fatal("stream lost accumulated cost")
	}
}

func TestStreamFlowControlBlocksServer(t *testing.T) {
	n := simNet(t)
	var sent atomic.Int64
	srv, err := Serve(n, "server:flow", func(c *Call) ([]byte, error) {
		sw, err := c.OpenStream()
		if err != nil {
			return nil, err
		}
		for i := 0; i < 4*streamWindow; i++ {
			if err := sw.Send([]byte{byte(i)}); err != nil {
				return nil, err
			}
			sent.Add(1)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:flow")
	defer cl.Close()

	st, err := cl.CallStream(obs.SpanContext{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Without consuming, the server must stall at the window.
	deadline := time.Now().Add(2 * time.Second)
	for sent.Load() < streamWindow && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := sent.Load(); got > streamWindow {
		t.Fatalf("server sent %d frames without credit (window %d)", got, streamWindow)
	}

	// Draining releases it.
	frames := 0
	for {
		_, _, err := st.Recv()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames++
	}
	if frames != 4*streamWindow {
		t.Fatalf("drained %d frames, want %d", frames, 4*streamWindow)
	}
}

func TestStreamCancelUnblocksHandler(t *testing.T) {
	n := simNet(t)
	handlerErr := make(chan error, 1)
	srv, err := Serve(n, "server:cancel", func(c *Call) ([]byte, error) {
		sw, err := c.OpenStream()
		if err != nil {
			return nil, err
		}
		for {
			if err := sw.Send(make([]byte, 1024)); err != nil {
				handlerErr <- err
				return nil, err
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:cancel")
	defer cl.Close()

	st, err := cl.CallStream(obs.SpanContext{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Recv(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	select {
	case err := <-handlerErr:
		if !errors.Is(err, ErrStreamCanceled) {
			t.Fatalf("handler err = %v, want ErrStreamCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler still blocked after cancel")
	}
}

func TestStreamRemoteError(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:fail", func(c *Call) ([]byte, error) {
		sw, err := c.OpenStream()
		if err != nil {
			return nil, err
		}
		if err := sw.Send([]byte("partial")); err != nil {
			return nil, err
		}
		return nil, errors.New("bulk source vanished")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:fail")
	defer cl.Close()

	st, err := cl.CallStream(obs.SpanContext{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p, _, err := st.Recv()
	if err != nil || string(p) != "partial" {
		t.Fatalf("first frame: %v %q", err, p)
	}
	_, _, err = st.Recv()
	if !IsRemote(err) {
		t.Fatalf("err = %v, want remote error", err)
	}
}

func TestCallStreamOnUnaryHandler(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:unary", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:unary")
	defer cl.Close()

	st, err := cl.CallStream(obs.SpanContext{}, 3, []byte{42})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, _, err = st.Recv()
	if !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want immediate EOF", err)
	}
	if !bytes.Equal(st.Trailer(), []byte{3, 42}) {
		t.Fatalf("trailer = %v", st.Trailer())
	}
}

func TestStreamInterleavesWithUnaryCalls(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:mixed", func(c *Call) ([]byte, error) {
		if c.Op == 99 {
			return streamNFrames(2*streamWindow, 512)(c)
		}
		return echoHandler(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:mixed")
	defer cl.Close()

	st, err := cl.CallStream(obs.SpanContext{}, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Unary traffic proceeds on the shared connection while the
	// stream is open (and stalled on flow control).
	for i := 0; i < 10; i++ {
		resp, _, err := cl.Call(obs.SpanContext{}, 5, []byte{byte(i)})
		if err != nil || !bytes.Equal(resp, []byte{5, byte(i)}) {
			t.Fatalf("unary call during stream: %v %q", err, resp)
		}
	}
	frames := 0
	for {
		_, _, err := st.Recv()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames++
	}
	if frames != 2*streamWindow {
		t.Fatalf("frames = %d", frames)
	}
}

func TestStreamOverTCP(t *testing.T) {
	var tcp transport.TCP
	const frames, size = 64, 64 << 10
	srv, err := Serve(tcp, "127.0.0.1:0", streamNFrames(frames, size))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(tcp, "", srv.Addr())
	defer cl.Close()

	st, err := cl.CallStream(obs.SpanContext{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var total int
	i := 0
	for {
		p, _, err := st.Recv()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != size || p[0] != byte(i) {
			t.Fatalf("frame %d corrupted", i)
		}
		total += len(p)
		i++
	}
	if total != frames*size {
		t.Fatalf("received %d bytes, want %d", total, frames*size)
	}
}
