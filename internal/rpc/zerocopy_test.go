package rpc

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"gdn/internal/obs"
	"gdn/internal/sec"
	"gdn/internal/transport"
)

// TestSendOwnedReleasesExactlyOnceOnSuccess streams owned buffers and
// counts releases: every buffer handed to SendOwned must be released
// exactly once, after its frame is written — the contract that lets
// the store recycle pooled chunk buffers.
func TestSendOwnedReleasesExactlyOnceOnSuccess(t *testing.T) {
	n := simNet(t)
	const frames, size = 20, 4 << 10
	var releases atomic.Int64
	srv, err := Serve(n, "server:zc", func(c *Call) ([]byte, error) {
		sw, err := c.OpenStream()
		if err != nil {
			return nil, err
		}
		for i := 0; i < frames; i++ {
			buf := bytes.Repeat([]byte{byte(i)}, size)
			if err := sw.SendOwned(buf, func() { releases.Add(1) }); err != nil {
				return nil, err
			}
		}
		return []byte("done"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:zc")
	defer cl.Close()

	st, err := cl.CallStream(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := 0
	for {
		p, _, err := st.Recv()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != size || p[0] != byte(got) || p[size-1] != byte(got) {
			t.Fatalf("frame %d corrupted: len %d, first %d", got, len(p), p[0])
		}
		got++
	}
	if got != frames {
		t.Fatalf("received %d frames, want %d", got, frames)
	}
	// Releases fire at write completion, which may trail the client's
	// last Recv by a beat.
	deadline := time.Now().Add(5 * time.Second)
	for releases.Load() != frames {
		if time.Now().After(deadline) {
			t.Fatalf("releases = %d, want exactly %d", releases.Load(), frames)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSendOwnedReleasesOnConnectionDeath kills the connection under a
// stream of owned buffers: every buffer accepted by SendOwned must
// still be released exactly once (on the sender's failure drain), and
// none may be released twice — a double release would recycle a pooled
// buffer while another frame owns it.
func TestSendOwnedReleasesOnConnectionDeath(t *testing.T) {
	n := simNet(t)
	const size = 4 << 10
	var handed, releases atomic.Int64
	handlerDone := make(chan struct{})
	srv, err := Serve(n, "server:zcdeath", func(c *Call) ([]byte, error) {
		defer close(handlerDone)
		sw, err := c.OpenStream()
		if err != nil {
			return nil, err
		}
		for i := 0; ; i++ {
			buf := bytes.Repeat([]byte{byte(i)}, size)
			handed.Add(1)
			if err := sw.SendOwned(buf, func() { releases.Add(1) }); err != nil {
				return nil, err
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:zcdeath")
	defer cl.Close()

	st, err := cl.CallStream(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Take a few frames, then tear the link down under the stream.
	for i := 0; i < 3; i++ {
		if _, _, err := st.Recv(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	n.SetDown("server", true)
	st.Close()

	select {
	case <-handlerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("handler never observed the dead connection")
	}
	deadline := time.Now().Add(5 * time.Second)
	for releases.Load() != handed.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("handed %d buffers but released %d: the ownership contract leaked or double-freed",
				handed.Load(), releases.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSendFileStreamsFileBytes serves a stream straight from an open
// file through SendFile (the sendfile-eligible path on real TCP; a
// pooled read on the simulated network) and verifies the bytes arrive
// intact and the release — which closes the file — fires exactly once.
func TestSendFileStreamsFileBytes(t *testing.T) {
	n := simNet(t)
	content := bytes.Repeat([]byte("spliced file bytes. "), 1024)
	path := filepath.Join(t.TempDir(), "chunk")
	if err := os.WriteFile(path, content, 0o600); err != nil {
		t.Fatal(err)
	}
	var releases atomic.Int64
	srv, err := Serve(n, "server:zcfile", func(c *Call) ([]byte, error) {
		sw, err := c.OpenStream()
		if err != nil {
			return nil, err
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		if err := sw.SendFile(f, int64(len(content)), func() { releases.Add(1); f.Close() }); err != nil {
			return nil, err
		}
		return []byte("done"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:zcfile")
	defer cl.Close()

	st, err := cl.CallStream(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got bytes.Buffer
	for {
		p, _, err := st.Recv()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got.Write(p)
	}
	if !bytes.Equal(got.Bytes(), content) {
		t.Fatalf("file stream delivered %d bytes, want %d intact", got.Len(), len(content))
	}
	deadline := time.Now().Add(5 * time.Second)
	for releases.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("file release fired %d times, want exactly 1", releases.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// streamFile serves one stream of a single file-backed frame over net
// and reads it back, returning once the frame's release has fired —
// after the send path counted it.
func streamFile(t *testing.T, net transport.Network, addr, from string, content []byte, srvOpts []ServerOption, cliOpts []ClientOption) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "chunk")
	if err := os.WriteFile(path, content, 0o600); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	srv, err := Serve(net, addr, func(c *Call) ([]byte, error) {
		sw, err := c.OpenStream()
		if err != nil {
			return nil, err
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		return nil, sw.SendFile(f, int64(len(content)), func() { f.Close(); close(released) })
	}, srvOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(net, from, srv.Addr(), cliOpts...)
	defer cl.Close()
	st, err := cl.CallStream(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got bytes.Buffer
	for {
		p, _, err := st.Recv()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got.Write(p)
	}
	if !bytes.Equal(got.Bytes(), content) {
		t.Fatalf("stream delivered %d bytes, want %d intact", got.Len(), len(content))
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("file frame never released")
	}
}

// TestSendfileCountersCountOnlySplicedBytes streams a file-backed frame
// over each kind of connection: the sendfile counters rise by the
// file's bytes only where the kernel spliced them (plain TCP), and not
// where the transport read the file into memory (a security channel
// sealing it into a record, or the simulated network).
func TestSendfileCountersCountOnlySplicedBytes(t *testing.T) {
	content := bytes.Repeat([]byte("chunk bytes "), 8<<10)
	ca, err := sec.NewAuthority("rpc-test")
	if err != nil {
		t.Fatal(err)
	}
	config := func(role string) *sec.Config {
		creds, err := sec.NewCredentials(ca, sec.Principal(role, "test"), role)
		if err != nil {
			t.Fatal(err)
		}
		return &sec.Config{Creds: creds, TrustAnchors: ca.Anchors(), RequireClientAuth: true}
	}
	srvSec, cliSec := config(sec.RoleGOS), config(sec.RoleHTTPD)
	cases := []struct {
		name    string
		net     transport.Network
		addr    string
		srvOpts []ServerOption
		cliOpts []ClientOption
		want    int64
	}{
		{name: "tcp", net: transport.TCP{}, addr: "127.0.0.1:0", want: int64(len(content))},
		{name: "tcp+sec", net: transport.TCP{}, addr: "127.0.0.1:0",
			srvOpts: []ServerOption{WithServerWrapper(srvSec.WrapServer)},
			cliOpts: []ClientOption{WithClientWrapper(cliSec.WrapClient)}},
		{name: "netsim", net: simNet(t), addr: "server:zcsplice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bytes0 := obs.Default.CounterValue("gdn_rpc_send_sendfile_bytes_total")
			frames0 := obs.Default.CounterValue("gdn_rpc_send_sendfile_frames_total")
			streamFile(t, tc.net, tc.addr, "client", content, tc.srvOpts, tc.cliOpts)
			if d := obs.Default.CounterValue("gdn_rpc_send_sendfile_bytes_total") - bytes0; d != tc.want {
				t.Errorf("sendfile bytes counter rose by %d, want %d", d, tc.want)
			}
			wantFrames := map[bool]int64{true: 1}[tc.want > 0]
			if d := obs.Default.CounterValue("gdn_rpc_send_sendfile_frames_total") - frames0; d != wantFrames {
				t.Errorf("sendfile frames counter rose by %d, want %d", d, wantFrames)
			}
		})
	}
}
