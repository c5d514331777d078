package sec

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gdn/internal/transport"
)

// loopConn is an in-memory transport holding one record: Send copies
// it into buf and Recv hands buf back. A sealing and an opening Channel
// share one loopConn, so the tests and benchmarks below measure the
// record layer alone.
type loopConn struct{ buf []byte }

func (c *loopConn) Send(p []byte) error                  { c.buf = append(c.buf[:0], p...); return nil }
func (c *loopConn) Recv() ([]byte, time.Duration, error) { return c.buf, 0, nil }
func (c *loopConn) Close() error                         { return nil }
func (c *loopConn) LocalAddr() string                    { return "loop" }
func (c *loopConn) RemoteAddr() string                   { return "loop" }

// SendFrames keeps the last record, which a Channel hands down in Head.
func (c *loopConn) SendFrames(frames []transport.Frame) (int64, error) {
	for i := range frames {
		c.buf = append(c.buf[:0], frames[i].Head...)
	}
	return 0, nil
}

// keyedChannel returns one side of an established channel over conn,
// keyed from a fixed shared secret and transcript so that records are
// reproducible across runs.
func keyedChannel(tb testing.TB, conn transport.Conn, isClient, encrypt bool) *Channel {
	tb.Helper()
	transcript := sha256.Sum256([]byte("record test transcript"))
	ch, err := newChannel(conn, bytes.Repeat([]byte{7}, 32), transcript[:], isClient, encrypt)
	if err != nil {
		tb.Fatal(err)
	}
	return ch
}

// recordPair returns a client-side sender and a server-side receiver
// sharing one loopConn.
func recordPair(tb testing.TB, encrypt bool) (tx, rx *Channel) {
	conn := &loopConn{}
	return keyedChannel(tb, conn, true, encrypt), keyedChannel(tb, conn, false, encrypt)
}

func modeName(encrypt bool) string {
	if encrypt {
		return "encrypted"
	}
	return "integrity"
}

func TestRecordSealOpenAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	payload := bytes.Repeat([]byte("gdn!"), 64<<10) // 256 KiB: one storage chunk
	hdr := []byte("stream frame header")
	path := filepath.Join(t.TempDir(), "chunk")
	if err := os.WriteFile(path, payload, 0o600); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	fileFrame := []transport.Frame{{Head: hdr, File: file, FileN: int64(len(payload))}}

	inputs := []struct {
		name string
		send func(tx *Channel) error
		want int
	}{
		{"memory", func(tx *Channel) error { return tx.Send(payload) }, len(payload)},
		{"file", func(tx *Channel) error {
			if _, err := file.Seek(0, io.SeekStart); err != nil {
				return err
			}
			_, err := tx.SendFrames(fileFrame)
			return err
		}, len(hdr) + len(payload)},
	}
	for _, encrypt := range []bool{false, true} {
		for _, in := range inputs {
			name := modeName(encrypt)
			if in.name != "memory" {
				name += "/" + in.name
			}
			t.Run(name, func(t *testing.T) {
				tx, rx := recordPair(t, encrypt)
				roundTrip := func() {
					if err := in.send(tx); err != nil {
						t.Fatal(err)
					}
					body, _, err := rx.Recv()
					if err != nil || len(body) != in.want {
						t.Fatalf("recv: %d bytes, %v", len(body), err)
					}
				}
				roundTrip() // warm the record pool and the loopConn buffer
				if got := testing.AllocsPerRun(20, roundTrip); got != 0 {
					t.Errorf("seal+open of a 256 KiB %s record allocates %.1f objects, want 0", in.name, got)
				}
			})
		}
	}
}

func BenchmarkRecord(b *testing.B) {
	for _, encrypt := range []bool{false, true} {
		for _, size := range []int{1 << 10, 64 << 10, 256 << 10} {
			b.Run(fmt.Sprintf("%s/%dKiB", modeName(encrypt), size>>10), func(b *testing.B) {
				tx, rx := recordPair(b, encrypt)
				payload := make([]byte, size)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for b.Loop() {
					if err := tx.Send(payload); err != nil {
						b.Fatal(err)
					}
					if _, _, err := rx.Recv(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// feedConn delivers one pooled frame to Recv.
type feedConn struct {
	loopConn
	frame []byte
}

func (c *feedConn) Recv() ([]byte, time.Duration, error) { return c.frame, 0, nil }

// FuzzChannelRecv feeds arbitrary bytes to an established channel as
// its next record. Only the genuine record for the mode opens; every
// other input fails with ErrRecord, and Recv releases its frame exactly
// once — or, on success, hands the frame's payload to the caller, who
// owns the release.
func FuzzChannelRecv(f *testing.F) {
	payload := []byte("gdn record payload")
	genuine := map[bool][]byte{}
	for _, encrypt := range []bool{false, true} {
		tx, _ := recordPair(f, encrypt)
		if err := tx.Send(payload); err != nil {
			f.Fatal(err)
		}
		genuine[encrypt] = bytes.Clone(tx.conn.(*loopConn).buf)
		f.Add(encrypt, genuine[encrypt])
	}
	f.Cleanup(func() { putFrame = transport.PutFrame })

	f.Fuzz(func(t *testing.T, encrypt bool, rec []byte) {
		frame := transport.GetFrame(len(rec))
		copy(frame, rec)
		releases := 0
		putFrame = func(p []byte) {
			if &p[:1][0] != &frame[:1][0] {
				t.Error("released a buffer other than the received frame")
			}
			releases++
			transport.PutFrame(p)
		}
		rx := keyedChannel(t, &feedConn{frame: frame}, false, encrypt)
		body, _, err := rx.Recv()

		if bytes.Equal(rec, genuine[encrypt]) {
			if err != nil || !bytes.Equal(body, payload) {
				t.Fatalf("genuine record rejected: %q %v", body, err)
			}
			if releases != 0 || &body[0] != &frame[seqSize] {
				t.Fatalf("genuine record: %d releases, body aliases frame: %v", releases, &body[0] == &frame[seqSize])
			}
			transport.PutFrame(frame)
			return
		}
		if !errors.Is(err, ErrRecord) {
			t.Fatalf("forged record: err = %v, want ErrRecord", err)
		}
		if body != nil || releases != 1 {
			t.Fatalf("forged record: body %q, %d releases, want nil and 1", body, releases)
		}
	})
}
