package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
)

// wireConn is the raw side of a framed connection whose peer has
// already written every byte it ever will.
type wireConn struct {
	net.Conn
	r      *bytes.Reader
	closed bool
}

func (c *wireConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c *wireConn) Close() error               { c.closed = true; return nil }

// FuzzFramedConnRecv feeds arbitrary bytes on the wire to
// framedConn.Recv until it fails. A hostile peer must not crash the
// receiver or make it allocate past MaxFrame (§6.1): Recv delivers
// exactly the complete frames a straightforward parse of the bytes
// finds, refuses an oversized length prefix by closing the connection,
// and releases the pooled frame of a truncated body exactly once. The
// committed corpus (testdata/fuzz/FuzzFramedConnRecv) holds the
// hostile cases: absurd and just-too-large length prefixes, a half
// prefix, a truncated body, and valid frames followed by garbage.
func FuzzFramedConnRecv(f *testing.F) {
	f.Cleanup(func() { putFrame = PutFrame })

	f.Fuzz(func(t *testing.T, data []byte) {
		// The model: whole frames, then what the failing Recv sees.
		var want [][]byte
		rest := data
		for len(rest) >= 4 {
			n := binary.BigEndian.Uint32(rest)
			if n > MaxFrame || uint64(len(rest)-4) < uint64(n) {
				break
			}
			want = append(want, rest[4:4+n])
			rest = rest[4+n:]
		}
		oversized := len(rest) >= 4 && binary.BigEndian.Uint32(rest) > MaxFrame
		truncated := len(rest) >= 4 && !oversized

		releases := 0
		putFrame = func(p []byte) {
			releases++
			PutFrame(p)
		}
		raw := &wireConn{r: bytes.NewReader(data)}
		c := NewFramedConn(raw)
		for i := 0; ; i++ {
			p, _, err := c.Recv()
			if err != nil {
				if p != nil {
					t.Fatalf("failed Recv returned a %d-byte frame", len(p))
				}
				if i != len(want) {
					t.Fatalf("Recv failed after %d frames, want %d: %v", i, len(want), err)
				}
				break
			}
			if i >= len(want) || !bytes.Equal(p, want[i]) {
				t.Fatalf("frame %d = %d bytes, not the frame on the wire", i, len(p))
			}
			PutFrame(p)
		}
		if raw.closed != oversized {
			t.Fatalf("conn closed = %v, want %v (oversized length prefix)", raw.closed, oversized)
		}
		if want := map[bool]int{true: 1}[truncated]; releases != want {
			t.Fatalf("%d frame releases on the failing Recv, want %d", releases, want)
		}
	})
}
