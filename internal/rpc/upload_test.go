package rpc

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"gdn/internal/netsim"
	"gdn/internal/obs"
	"gdn/internal/transport"
)

// uploadSummer returns a handler that consumes an upload, hashing the
// frames it receives, and answers with "<frames> <hexdigest>".
func uploadSummer() Handler {
	return func(c *Call) ([]byte, error) {
		ur := c.Upload()
		if ur == nil {
			return nil, errors.New("not an upload call")
		}
		h := sha256.New()
		frames := 0
		for {
			p, err := ur.Recv()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
			h.Write(p)
			frames++
		}
		return []byte(fmt.Sprintf("%d %x", frames, h.Sum(nil))), nil
	}
}

func TestUploadDeliversFramesInOrder(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:up", uploadSummer())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:up")
	defer cl.Close()

	const frames, size = 100, 8 << 10
	us, err := cl.CallUpload(obs.SpanContext{}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	buf := make([]byte, size)
	for i := 0; i < frames; i++ {
		for j := range buf {
			buf[j] = byte(i)
		}
		h.Write(buf)
		if err := us.Send(buf); err != nil {
			t.Fatalf("send frame %d: %v", i, err)
		}
	}
	resp, _, err := us.CloseAndRecv()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%d %x", frames, h.Sum(nil))
	if string(resp) != want {
		t.Fatalf("server summed %q, want %q", resp, want)
	}
}

func TestUploadHeaderReachesHandler(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:hdr", func(c *Call) ([]byte, error) {
		if c.Upload() == nil {
			return nil, errors.New("no upload attached")
		}
		for {
			if _, err := c.Upload().Recv(); err != nil {
				break
			}
		}
		return []byte(fmt.Sprintf("op=%d header=%s", c.Op, c.Body)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:hdr")
	defer cl.Close()

	us, err := cl.CallUpload(obs.SpanContext{}, 42, []byte("manifest"))
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := us.CloseAndRecv()
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "op=42 header=manifest" {
		t.Fatalf("handler saw %q", resp)
	}
}

func TestUploadFlowControlBoundsOutstanding(t *testing.T) {
	n := simNet(t)
	release := make(chan struct{})
	srv, err := Serve(n, "server:fc", func(c *Call) ([]byte, error) {
		<-release // park before consuming anything
		for {
			_, err := c.Upload().Recv()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
		}
		return []byte("done"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:fc")
	defer cl.Close()

	us, err := cl.CallUpload(obs.SpanContext{}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The window admits exactly streamWindow frames while the handler
	// is parked; the next Send must block.
	for i := 0; i < streamWindow; i++ {
		if err := us.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d within window: %v", i, err)
		}
	}
	blocked := make(chan error, 1)
	go func() {
		blocked <- us.Send([]byte{0xFF})
	}()
	select {
	case err := <-blocked:
		t.Fatalf("send beyond the window returned early (%v); flow control is not applying", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release) // handler consumes; credit flows; the send completes
	if err := <-blocked; err != nil {
		t.Fatalf("send after credit: %v", err)
	}
	resp, _, err := us.CloseAndRecv()
	if err != nil || string(resp) != "done" {
		t.Fatalf("CloseAndRecv = %q, %v", resp, err)
	}
}

func TestUploadServerEarlyAnswerUnblocksSender(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:early", func(c *Call) ([]byte, error) {
		// Read one frame, then reject the rest.
		if _, err := c.Upload().Recv(); err != nil {
			return nil, err
		}
		return nil, errors.New("quota exceeded")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:early")
	defer cl.Close()

	us, err := cl.CallUpload(obs.SpanContext{}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Keep sending until the server's answer fails the stream; the
	// window guarantees this cannot loop forever.
	var sendErr error
	for i := 0; i < 10*streamWindow; i++ {
		if sendErr = us.Send([]byte("x")); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatalf("sends kept succeeding after the server answered")
	}
	_, _, err = us.CloseAndRecv()
	if err == nil || !IsRemote(err) {
		t.Fatalf("CloseAndRecv = %v, want the handler's remote error", err)
	}
}

func TestUploadCancelUnblocksHandler(t *testing.T) {
	n := simNet(t)
	handlerErr := make(chan error, 1)
	srv, err := Serve(n, "server:cancel", func(c *Call) ([]byte, error) {
		for {
			_, err := c.Upload().Recv()
			if err != nil {
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

	us, err := cl.CallUpload(obs.SpanContext{}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := us.Send([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	us.Cancel()
	select {
	case err := <-handlerErr:
		if !errors.Is(err, ErrStreamCanceled) {
			t.Fatalf("handler unblocked with %v, want ErrStreamCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("handler still parked after cancel")
	}
	if _, _, err := us.CloseAndRecv(); !errors.Is(err, ErrStreamCanceled) {
		t.Fatalf("CloseAndRecv after cancel = %v", err)
	}
}

func TestUploadConnectionDeathFailsBothSides(t *testing.T) {
	n := simNet(t)
	started := make(chan struct{})
	handlerErr := make(chan error, 1)
	srv, err := Serve(n, "server:death", func(c *Call) ([]byte, error) {
		close(started)
		for {
			_, err := c.Upload().Recv()
			if err != nil {
				handlerErr <- err
				return nil, err
			}
		}
	}, WithServerLog(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(n, "client", "server:death")
	defer cl.Close()

	us, err := cl.CallUpload(obs.SpanContext{}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := us.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	<-started // the handler owns the upload before the connection dies
	srv.Close()
	if _, _, err := us.CloseAndRecv(); err == nil {
		t.Fatalf("CloseAndRecv survived the connection dying")
	}
	select {
	case err := <-handlerErr:
		if err == nil {
			t.Fatalf("handler Recv returned nil after connection death")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("handler still parked after connection death")
	}
}

func TestUploadInterleavesWithUnaryCalls(t *testing.T) {
	n := simNet(t)
	gate := make(chan struct{})
	srv, err := Serve(n, "server:mix", func(c *Call) ([]byte, error) {
		if ur := c.Upload(); ur != nil {
			<-gate // hold the upload open across the unary calls
			total := 0
			for {
				p, err := ur.Recv()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return nil, err
				}
				total += len(p)
			}
			return []byte(fmt.Sprintf("upload %d", total)), nil
		}
		return append([]byte("unary "), c.Body...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:mix")
	defer cl.Close()

	us, err := cl.CallUpload(obs.SpanContext{}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := us.Send(bytes.Repeat([]byte("a"), 100)); err != nil {
		t.Fatal(err)
	}
	// Unary traffic keeps flowing on the same connection while the
	// upload is parked.
	for i := 0; i < 10; i++ {
		resp, _, err := cl.Call(obs.SpanContext{}, 9, []byte("ping"))
		if err != nil || string(resp) != "unary ping" {
			t.Fatalf("unary call during upload: %q, %v", resp, err)
		}
	}
	close(gate)
	resp, _, err := us.CloseAndRecv()
	if err != nil || string(resp) != "upload 100" {
		t.Fatalf("upload result = %q, %v", resp, err)
	}
}

func TestUploadReservedInnerOpRejected(t *testing.T) {
	n := simNet(t)
	srv, err := Serve(n, "server:resv", uploadSummer())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:resv")
	defer cl.Close()
	if _, err := cl.CallUpload(obs.SpanContext{}, opStreamAck, nil); err == nil {
		t.Fatalf("reserved inner op accepted")
	}
}

func TestUploadOverTCP(t *testing.T) {
	var tcp transport.TCP
	srv, err := Serve(&tcp, "127.0.0.1:0", uploadSummer())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(&tcp, "client", srv.Addr())
	defer cl.Close()

	const frames, size = 64, 64 << 10
	us, err := cl.CallUpload(obs.SpanContext{}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	buf := make([]byte, size)
	for i := 0; i < frames; i++ {
		for j := range buf {
			buf[j] = byte(i * 31)
		}
		h.Write(buf)
		if err := us.Send(buf); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	resp, _, err := us.CloseAndRecv()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%d %x", frames, h.Sum(nil))
	if string(resp) != want {
		t.Fatalf("TCP upload summed %q, want %q", resp, want)
	}
}

// TestUploadSweeperFailsWaitersOnWedgedConn covers the pending-table
// sweeper when the connection wedges mid-upload with credit frames in
// flight: the link silently eats every frame (loss 1.0), so the
// server's credit grants never arrive and senders parked on the
// flow-control window would otherwise wait forever. The sweeper must
// fail every waiter within roughly one sweep interval (the call's
// timeout), and no goroutine may leak.
func TestUploadSweeperFailsWaitersOnWedgedConn(t *testing.T) {
	base := runtime.NumGoroutine()

	n := simNet(t)
	gotFrame := make(chan struct{}, 64)
	srv, err := Serve(n, "server:wedge", func(c *Call) ([]byte, error) {
		for {
			if _, err := c.Upload().Recv(); err != nil {
				return nil, nil
			}
			gotFrame <- struct{}{}
		}
	}, WithServerLog(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}

	cl := NewClient(n, "client", "server:wedge")
	cl.Timeout = 200 * time.Millisecond
	us, err := cl.CallUpload(obs.SpanContext{}, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Prove the connection live, then wedge the link.
	if err := us.Send([]byte("alive")); err != nil {
		t.Fatal(err)
	}
	<-gotFrame
	n.SetLinkFaults(netsim.WideArea, netsim.LinkFaults{Loss: 1})

	// Far more senders than the flow-control window: the first few
	// spend the remaining credit (their frames vanish silently — the
	// sender cannot know), the rest park waiting for credit that can
	// never arrive.
	const senders = 40
	start := time.Now()
	errs := make(chan error, senders)
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- us.Send(make([]byte, 1024))
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("senders still parked long after the sweep interval")
	}
	if elapsed := time.Since(start); elapsed > 10*cl.Timeout {
		t.Fatalf("waiters released after %v, want within ~one sweep interval (%v)", elapsed, cl.Timeout)
	}
	close(errs)
	var failed int
	for err := range errs {
		if err != nil {
			failed++
			if IsRemote(err) {
				t.Fatalf("wedged-conn failure surfaced as remote error: %v", err)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no parked sender observed the sweeper's failure")
	}
	// The authoritative result reports the failure too, promptly.
	if _, _, err := us.CloseAndRecv(); err == nil {
		t.Fatal("CloseAndRecv survived a wedged connection")
	}

	n.ClearFaults()
	cl.Close()
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
