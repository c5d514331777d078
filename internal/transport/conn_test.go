package transport_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gdn/internal/netsim"
	"gdn/internal/sec"
	"gdn/internal/transport"
)

// connPair establishes a client/server conn pair over some transport.
type connPair func(t *testing.T) (client, server transport.Conn)

func tcpPair(t *testing.T) (transport.Conn, transport.Conn) {
	return accept(t, transport.TCP{}, "127.0.0.1:0", "")
}

func netsimPair(t *testing.T) (transport.Conn, transport.Conn) {
	n := netsim.New(nil)
	n.AddSite("a", "d1", "eu")
	n.AddSite("b", "d2", "us")
	return accept(t, n, "b:svc", "a")
}

// accept listens on addr, dials it from site from, and returns both
// ends, closed when the test ends.
func accept(t *testing.T, nw transport.Network, addr, from string) (transport.Conn, transport.Conn) {
	t.Helper()
	l, err := nw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	acc := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(acc)
			return
		}
		acc <- c
	}()
	client, err := nw.Dial(from, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-acc
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// secured runs a mutually authenticated security handshake over the
// conns of raw.
func secured(raw connPair, encrypt bool) connPair {
	return func(t *testing.T) (transport.Conn, transport.Conn) {
		c, s := raw(t)
		ca, err := sec.NewAuthority("conformance")
		if err != nil {
			t.Fatal(err)
		}
		config := func(role string) *sec.Config {
			creds, err := sec.NewCredentials(ca, sec.Principal(role, "conformance"), role)
			if err != nil {
				t.Fatal(err)
			}
			return &sec.Config{Creds: creds, TrustAnchors: ca.Anchors(), RequireClientAuth: true, Encrypt: encrypt}
		}
		srvCfg, cliCfg := config(sec.RoleGOS), config(sec.RoleHTTPD)
		type result struct {
			ch  *sec.Channel
			err error
		}
		srv := make(chan result, 1)
		go func() {
			ch, err := sec.Server(s, srvCfg)
			srv <- result{ch, err}
		}()
		cli, err := sec.Client(c, cliCfg)
		r := <-srv
		if err != nil || r.err != nil {
			t.Fatalf("handshake: client %v, server %v", err, r.err)
		}
		return cli, r.ch
	}
}

// conns are every Conn implementation, as deployed: raw TCP and the
// simulated network, each bare and under a security channel in both
// protection modes. splices marks the one that hands file sections to
// the kernel.
var conns = []struct {
	name    string
	pair    connPair
	splices bool
}{
	{"tcp", tcpPair, true},
	{"netsim", netsimPair, false},
	{"tcp+sec-integrity", secured(tcpPair, false), false},
	{"tcp+sec-encrypted", secured(tcpPair, true), false},
	{"netsim+sec-integrity", secured(netsimPair, false), false},
	{"netsim+sec-encrypted", secured(netsimPair, true), false},
}

// recvFrames receives n frames as strings.
func recvFrames(t *testing.T, c transport.Conn, n int) []string {
	t.Helper()
	got := make([]string, n)
	for i := range got {
		p, _, err := c.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got[i] = string(p)
		transport.PutFrame(p)
	}
	return got
}

// offset is f's current file offset.
func offset(t *testing.T, f *os.File) int64 {
	t.Helper()
	off, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		t.Fatal(err)
	}
	return off
}

// TestConnConformance holds every Conn implementation to the contract
// the RPC layer builds on: SendFrames carries in-memory, body and file
// frames byte-identically and in order, advances each file by exactly
// its section, never interleaves concurrent senders, and refuses an
// oversized frame before writing any byte of its batch.
func TestConnConformance(t *testing.T) {
	content := bytes.Repeat([]byte("0123456789abcdef"), 40<<10) // 640 KiB
	path := filepath.Join(t.TempDir(), "chunk")
	if err := os.WriteFile(path, content, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range conns {
		t.Run(tc.name, func(t *testing.T) {
			client, server := tc.pair(t)
			file, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer file.Close()

			t.Run("mixed frames", func(t *testing.T) {
				// Two file sections back to back: the second starts where
				// the first left the offset. The second, shorter batch
				// reuses the send scratch the first grew.
				const start, n1, n2 = 100, 256 << 10, 64 << 10
				if _, err := file.Seek(start, io.SeekStart); err != nil {
					t.Fatal(err)
				}
				body := content[:300<<10]
				batches := [][]transport.Frame{
					{
						{Head: []byte("plain")},
						{Head: []byte("hdr1|"), Body: body},
						{Head: []byte("hdr2|"), File: file, FileN: n1},
						{Head: []byte("hdr3|"), Body: []byte("b"), File: file, FileN: n2},
						{Head: []byte{}},
						{Head: []byte("tail")},
					},
					{{Head: []byte("a")}, {Head: []byte("bb")}},
				}
				want := []string{
					"plain",
					"hdr1|" + string(body),
					"hdr2|" + string(content[start:start+n1]),
					"hdr3|b" + string(content[start+n1:start+n1+n2]),
					"",
					"tail",
					"a", "bb",
				}
				var spliced int64
				errc := make(chan error, 1)
				go func() {
					for _, b := range batches {
						n, err := client.SendFrames(b)
						spliced += n
						if err != nil {
							errc <- err
							return
						}
					}
					errc <- nil
				}()
				got := recvFrames(t, server, len(want))
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("frame %d: %d bytes, want %d identical bytes", i, len(got[i]), len(want[i]))
					}
				}
				if off := offset(t, file); off != start+n1+n2 {
					t.Fatalf("file offset %d after the batch, want %d", off, start+n1+n2)
				}
				if wantSpliced := map[bool]int64{true: n1 + n2}[tc.splices]; spliced != wantSpliced {
					t.Fatalf("spliced %d bytes, want %d", spliced, wantSpliced)
				}
			})

			t.Run("concurrent senders", func(t *testing.T) {
				// Batches of three tagged frames race single sends; every
				// frame must arrive whole and every batch contiguous.
				const rounds = 30
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						batch := []transport.Frame{
							{Head: bytes.Repeat([]byte{1}, i+1)},
							{Head: []byte{2}, Body: bytes.Repeat([]byte{2}, i+1)},
							{Head: bytes.Repeat([]byte{3}, i+3)},
						}
						if _, err := client.SendFrames(batch); err != nil {
							t.Error(err)
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						if err := client.Send(bytes.Repeat([]byte{9}, i+1)); err != nil {
							t.Error(err)
							return
						}
					}
				}()
				got := recvFrames(t, server, 4*rounds)
				wg.Wait()
				count := map[byte]int{}
				for i, p := range got {
					for j := range len(p) {
						if p[j] != p[0] {
							t.Fatalf("frame %d interleaved: %v", i, []byte(p))
						}
					}
					if tag := p[0]; tag == 2 || tag == 3 {
						if prev := got[i-1][0]; prev != tag-1 {
							t.Fatalf("frame %d (tag %d) follows tag %d: a batch was split", i, tag, prev)
						}
					}
					count[p[0]]++
				}
				for _, tag := range []byte{1, 2, 3, 9} {
					if count[tag] != rounds {
						t.Fatalf("tag %d: %d frames, want %d", tag, count[tag], rounds)
					}
				}
			})

			t.Run("oversized frame", func(t *testing.T) {
				before := offset(t, file)
				for _, batch := range [][]transport.Frame{
					{{Head: []byte("early")}, {Head: make([]byte, transport.MaxFrame+1)}},
					{{Head: []byte("early")}, {Head: []byte("hdr"), Body: make([]byte, transport.MaxFrame)}},
					{{Head: []byte("early")}, {File: file, FileN: transport.MaxFrame + 1}},
				} {
					if _, err := client.SendFrames(batch); !errors.Is(err, transport.ErrFrameSize) {
						t.Fatalf("err = %v, want ErrFrameSize", err)
					}
				}
				if err := client.Send(make([]byte, transport.MaxFrame+1)); !errors.Is(err, transport.ErrFrameSize) {
					t.Fatalf("Send: err = %v, want ErrFrameSize", err)
				}
				if off := offset(t, file); off != before {
					t.Fatalf("a refused batch moved the file offset %d -> %d", before, off)
				}
				// Nothing of the refused batches reached the wire, and the
				// conn is still usable.
				if _, err := client.SendFrames([]transport.Frame{{Head: []byte("marker")}}); err != nil {
					t.Fatal(err)
				}
				if got := recvFrames(t, server, 1); got[0] != "marker" {
					t.Fatalf("first frame after refused batches = %q, want marker", fmt.Sprintf("%.16s", got[0]))
				}
			})
		})
	}
}
