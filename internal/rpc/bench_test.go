package rpc

import (
	"errors"
	"io"
	"testing"

	"gdn/internal/netsim"
	"gdn/internal/obs"
)

// Stream benchmarks: one op moves benchFrames frames of benchFrameSize
// bytes through one credit-windowed stream over a netsim connection —
// the shape of a bulk download (server to client) and of a chunk upload
// (client to server). allocs/op and B/op are the numbers that matter:
// the bulk_secure and publish workloads carry 32-128 such frames per
// operation, so one extra allocation per frame shows there.
const (
	benchFrames    = 64
	benchFrameSize = 256 << 10
)

func benchNet() *netsim.Network {
	n := netsim.New(nil)
	n.AddSite("client", "c", "eu")
	n.AddSite("server", "s", "us")
	return n
}

func BenchmarkStream(b *testing.B) {
	n := benchNet()
	payload := make([]byte, benchFrameSize)
	srv, err := Serve(n, "server:bstream", func(c *Call) ([]byte, error) {
		sw, err := c.OpenStream()
		if err != nil {
			return nil, err
		}
		for i := 0; i < benchFrames; i++ {
			if err := sw.SendOwned(payload, nil); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:bstream")
	defer cl.Close()

	b.SetBytes(benchFrames * benchFrameSize)
	b.ReportAllocs()
	for b.Loop() {
		st, err := cl.CallStream(obs.SpanContext{}, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		frames := 0
		for {
			_, _, err := st.Recv()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			frames++
		}
		st.Close()
		if frames != benchFrames {
			b.Fatalf("received %d frames, want %d", frames, benchFrames)
		}
	}
}

func BenchmarkUpload(b *testing.B) {
	n := benchNet()
	srv, err := Serve(n, "server:bupload", func(c *Call) ([]byte, error) {
		for {
			if _, err := c.Upload().Recv(); errors.Is(err, io.EOF) {
				return nil, nil
			} else if err != nil {
				return nil, err
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(n, "client", "server:bupload")
	defer cl.Close()

	payload := make([]byte, benchFrameSize)
	b.SetBytes(benchFrames * benchFrameSize)
	b.ReportAllocs()
	for b.Loop() {
		us, err := cl.CallUpload(obs.SpanContext{}, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < benchFrames; j++ {
			if err := us.Send(payload); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := us.CloseAndRecv(); err != nil {
			b.Fatal(err)
		}
	}
}
