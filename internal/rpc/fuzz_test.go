package rpc

import (
	"testing"

	"gdn/internal/obs"
)

// fuzzFrames turns fuzz input into a sequence of request frames. Each
// frame takes three bytes — the request ID (two bits, so IDs collide
// often) and a trace flag, a kind, a body length — then the body:
//
//	kind 0  unary call (op 1)        5  upload end
//	     1  response stream (op 2)   6  stream credit (body as sent)
//	     2  stream, opened twice     7  stream cancel
//	     3  upload open (op 7, or a  8  unknown reserved op
//	        reserved inner op)       9  the body as a raw frame
//	     4  upload data
func fuzzFrames(in []byte) [][]byte {
	var frames [][]byte
	for len(in) >= 3 && len(frames) < 64 {
		id, traced, kind, n := uint64(in[0]&3), in[0]&4 != 0, in[1]%10, int(in[2]%16)
		in = in[3:]
		n = min(n, len(in))
		body := in[:n]
		in = in[n:]
		var tc obs.SpanContext
		if traced {
			tc = obs.SpanContext{Trace: 1, Span: id + 1}
		}
		var op uint16
		switch kind {
		case 0, 1, 2:
			op = uint16(kind) + 1
		case 3:
			inner := uint16(7)
			if n%2 == 1 {
				inner = opStreamAck
			}
			op, body = opUploadOpen, encodeUploadOpen(inner, body)
		case 4:
			op = opUploadData
		case 5:
			op = opUploadEnd
		case 6:
			op = opStreamAck
		case 7:
			op = opStreamCancel
		case 8:
			op = opReserved + uint16(n)
		case 9:
			frames = append(frames, append([]byte(nil), body...))
			continue
		}
		w := encodeRequest(id, op, body, tc)
		frames = append(frames, append([]byte(nil), w.Bytes()...))
		w.Free()
	}
	return frames
}

// fuzzHandler serves every call shape fuzzFrames can open, counting the
// handlers that start and return.
func fuzzHandler(hc *handlerCount) Handler {
	return func(c *Call) ([]byte, error) {
		defer hc.enter()()
		if ur := c.Upload(); ur != nil {
			for {
				if _, err := ur.Recv(); err != nil {
					return nil, err
				}
			}
		}
		if c.Op == 2 || c.Op == 3 {
			sw, err := c.OpenStream()
			if err != nil {
				return nil, err
			}
			if c.Op == 3 {
				_, err := c.OpenStream()
				return nil, err
			}
			for i := 0; i < 3*streamWindow; i++ {
				if err := sw.Send([]byte{byte(i)}); err != nil {
					return nil, err
				}
			}
		}
		return c.Body, nil
	}
}

// FuzzServerFrames feeds a served connection an arbitrary sequence of
// request frames — every call shape, credit and cancel frames, unknown
// reserved ops, reused IDs and garbage — and checks that nothing panics
// and that once the connection and the server close, every handler
// that started has returned. The committed corpus holds the two
// duplicate-ID sequences that used to leak a parked handler.
func FuzzServerFrames(f *testing.F) {
	// An upload fed and ended, a stream credited then canceled.
	f.Add([]byte{1, 3, 0, 1, 4, 2, 'h', 'i', 1, 5, 0, 2, 1, 0, 2, 6, 4, 0, 0, 0, 8, 2, 7, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		n := simNet(t)
		var hc handlerCount
		srv, err := Serve(n, "server:fuzz", fuzzHandler(&hc), WithServerLog(func(string, ...any) {}))
		if err != nil {
			t.Fatal(err)
		}
		conn, err := n.Dial("client", "server:fuzz")
		if err != nil {
			t.Fatal(err)
		}
		// A last unary call fences the sequence: the server reads frames
		// in order, so once it is answered (or the server dropped the
		// connection) every frame before it has been acted on.
		const fence = 1 << 40
		fenced := make(chan struct{})
		go func() { // take responses as a client would, granting no credit
			defer close(fenced)
			for {
				frame, _, err := conn.Recv()
				if err != nil {
					return
				}
				if id, status, _, _, _, _ := decodeResponse(frame); id == fence && status != statusStream {
					return
				}
			}
		}()
		last := encodeRequest(fence, 1, nil, obs.SpanContext{})
		defer last.Free()
		for _, frame := range append(fuzzFrames(in), last.Bytes()) {
			if conn.Send(frame) != nil {
				break
			}
		}
		<-fenced
		conn.Close()
		srv.Close()
		waitUntil(t, "every handler returned", hc.allReturned)
	})
}
