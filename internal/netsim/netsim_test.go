package netsim

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gdn/internal/transport"
)

// world builds a small three-region network used across the tests.
func world(t *testing.T) *Network {
	t.Helper()
	n := New(nil)
	n.AddSite("eu-nl-vu", "ams", "eu")
	n.AddSite("eu-nl-tud", "ams", "eu") // same metro domain as vu
	n.AddSite("eu-de-tub", "ber", "eu")
	n.AddSite("us-ca-ucb", "bay", "us")
	n.AddSite("ap-jp-ut", "tko", "ap")
	return n
}

func TestClassification(t *testing.T) {
	n := world(t)
	cases := []struct {
		a, b string
		want LinkClass
	}{
		{"eu-nl-vu", "eu-nl-vu", Loopback},
		{"eu-nl-vu", "eu-nl-tud", Local},
		{"eu-nl-vu", "eu-de-tub", Regional},
		{"eu-nl-vu", "us-ca-ucb", WideArea},
		{"us-ca-ucb", "ap-jp-ut", WideArea},
	}
	for _, c := range cases {
		got, err := n.Classify(c.a, c.b)
		if err != nil {
			t.Fatalf("Classify(%s,%s): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Classify(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestClassifyUnknownSite(t *testing.T) {
	n := world(t)
	if _, err := n.Classify("eu-nl-vu", "nowhere"); err == nil {
		t.Fatal("Classify with unknown site succeeded")
	}
}

func TestCostOrdering(t *testing.T) {
	m := NewDefaultModel()
	vu := Site{ID: "a", Domain: "d1", Region: "eu"}
	tud := Site{ID: "b", Domain: "d1", Region: "eu"}
	tub := Site{ID: "c", Domain: "d2", Region: "eu"}
	ucb := Site{ID: "d", Domain: "d3", Region: "us"}
	n := 1 << 10
	local := m.Cost(vu, tud, n)
	regional := m.Cost(vu, tub, n)
	wide := m.Cost(vu, ucb, n)
	loop := m.Cost(vu, vu, n)
	if !(loop < local && local < regional && regional < wide) {
		t.Fatalf("cost ordering broken: loop=%v local=%v regional=%v wide=%v", loop, local, regional, wide)
	}
}

func TestCostGrowsWithSize(t *testing.T) {
	m := NewDefaultModel()
	a := Site{ID: "a", Region: "eu"}
	b := Site{ID: "b", Region: "us"}
	small := m.Cost(a, b, 100)
	big := m.Cost(a, b, 1<<20)
	if big <= small {
		t.Fatalf("1MB (%v) not costlier than 100B (%v)", big, small)
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	n := world(t)
	l, err := n.Listen("us-ca-ucb:svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		p, _, err := c.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- c.Send(append([]byte("echo:"), p...))
	}()

	c, err := n.Dial("eu-nl-vu", "us-ca-ucb:svc")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	p, cost, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(p) != "echo:hello" {
		t.Fatalf("payload = %q", p)
	}
	if cost <= 0 {
		t.Fatal("wide-area frame had zero cost")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestVirtualCostReflectsDistance(t *testing.T) {
	n := world(t)
	recvCost := func(listenAddr, from string) time.Duration {
		l, err := n.Listen(listenAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			c.Send([]byte("x"))
		}()
		c, err := n.Dial(from, listenAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, cost, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	local := recvCost("eu-nl-tud:a", "eu-nl-vu")
	regional := recvCost("eu-de-tub:a", "eu-nl-vu")
	wide := recvCost("us-ca-ucb:a", "eu-nl-vu")
	if !(local < regional && regional < wide) {
		t.Fatalf("cost not monotone with distance: %v %v %v", local, regional, wide)
	}
}

func TestMeterCountsByClass(t *testing.T) {
	n := world(t)
	l, _ := n.Listen("us-ca-ucb:svc")
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				if _, _, err := c.Recv(); err == nil {
					c.Send(make([]byte, 10))
				}
			}()
		}
	}()

	n.ResetMeter()
	c, err := n.Dial("eu-nl-vu", "us-ca-ucb:svc")
	if err != nil {
		t.Fatal(err)
	}
	c.Send(make([]byte, 100))
	c.Recv()
	c.Close()

	s := n.Meter()
	if s.Frames[WideArea] != 2 {
		t.Fatalf("wide-area frames = %d, want 2", s.Frames[WideArea])
	}
	if s.Bytes[WideArea] != 110 {
		t.Fatalf("wide-area bytes = %d, want 110", s.Bytes[WideArea])
	}
	if s.TotalFrames() != 2 {
		t.Fatalf("total frames = %d", s.TotalFrames())
	}
}

// TestMeterCountsFrameBeforeItArrives: a frame is metered before the
// receiver can take it, so a receiver that reads the meter after its
// Recv always sees the frame counted; a frame refused by a closed peer
// is not counted.
func TestMeterCountsFrameBeforeItArrives(t *testing.T) {
	n := world(t)
	l, _ := n.Listen("us-ca-ucb:svc")
	defer l.Close()
	const frames = 2000
	go func() {
		c, err := n.Dial("eu-nl-vu", "us-ca-ucb:svc")
		if err != nil {
			return
		}
		for range frames {
			if c.Send(make([]byte, 7)) != nil {
				return
			}
		}
	}()
	c, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		if _, _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
		if got := n.Meter().Frames[WideArea]; got < int64(i+1) {
			t.Fatalf("after receiving frame %d the meter counts %d", i+1, got)
		}
	}
	c.Close()
	before := n.Meter()
	// The sender's next frame meets a closed peer.
	d, err := n.Dial("eu-nl-vu", "us-ca-ucb:svc")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	peer.Close()
	if err := d.Send(make([]byte, 7)); err == nil {
		t.Fatal("a send to a closed peer succeeded")
	}
	if got := n.Meter().Sub(before); got.TotalFrames() != 0 || got.Bytes[WideArea] != 0 {
		t.Fatalf("a refused frame was metered: %+v", got)
	}
	d.Close()
}

func TestMeterSub(t *testing.T) {
	n := world(t)
	l, _ := n.Listen("eu-nl-tud:svc")
	defer l.Close()
	go func() {
		c, _ := l.Accept()
		if c != nil {
			c.Recv()
		}
	}()
	before := n.Meter()
	c, err := n.Dial("eu-nl-vu", "eu-nl-tud:svc")
	if err != nil {
		t.Fatal(err)
	}
	c.Send(make([]byte, 33))
	after := n.Meter()
	d := after.Sub(before)
	if d.Bytes[Local] != 33 || d.Frames[Local] != 1 {
		t.Fatalf("delta = %+v", d)
	}
	c.Close()
}

func TestDialErrors(t *testing.T) {
	n := world(t)
	if _, err := n.Dial("nowhere", "eu-nl-vu:svc"); err == nil {
		t.Error("dial from unknown site succeeded")
	}
	if _, err := n.Dial("eu-nl-vu", "nowhere:svc"); !errors.Is(err, transport.ErrUnreachable) {
		t.Errorf("dial to unknown site: %v", err)
	}
	if _, err := n.Dial("eu-nl-vu", "us-ca-ucb:svc"); !errors.Is(err, transport.ErrNoListener) {
		t.Errorf("dial with no listener: %v", err)
	}
	if _, err := n.Dial("eu-nl-vu", "bad-address"); err == nil {
		t.Error("dial to malformed address succeeded")
	}
}

func TestListenErrors(t *testing.T) {
	n := world(t)
	if _, err := n.Listen("nowhere:svc"); err == nil {
		t.Error("listen on unknown site succeeded")
	}
	if _, err := n.Listen("junk"); err == nil {
		t.Error("listen on malformed address succeeded")
	}
	l, err := n.Listen("eu-nl-vu:svc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("eu-nl-vu:svc"); err == nil {
		t.Error("double listen succeeded")
	}
	l.Close()
	// After close the address is free again.
	l2, err := n.Listen("eu-nl-vu:svc")
	if err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
	l2.Close()
}

func TestSiteDownBlocksTraffic(t *testing.T) {
	n := world(t)
	l, _ := n.Listen("us-ca-ucb:svc")
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			_ = c
		}
	}()

	c, err := n.Dial("eu-nl-vu", "us-ca-ucb:svc")
	if err != nil {
		t.Fatal(err)
	}
	n.SetDown("us-ca-ucb", true)
	if err := c.Send([]byte("x")); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("send to down site: %v", err)
	}
	if _, err := n.Dial("eu-nl-vu", "us-ca-ucb:svc"); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("dial to down site: %v", err)
	}
	n.SetDown("us-ca-ucb", false)
	if err := c.Send([]byte("x")); err != nil {
		t.Fatalf("send after recovery: %v", err)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := world(t)
	l, _ := n.Listen("ap-jp-ut:svc")
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()

	n.Partition("eu-nl-vu", "ap-jp-ut")
	if _, err := n.Dial("eu-nl-vu", "ap-jp-ut:svc"); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("dial across partition: %v", err)
	}
	// Partition is symmetric regardless of argument order.
	n.Heal("ap-jp-ut", "eu-nl-vu")
	if _, err := n.Dial("eu-nl-vu", "ap-jp-ut:svc"); err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	// Other paths unaffected during partition.
	n.Partition("eu-nl-vu", "ap-jp-ut")
	l2, _ := n.Listen("us-ca-ucb:svc")
	defer l2.Close()
	go func() {
		if _, err := l2.Accept(); err != nil {
			return
		}
	}()
	if _, err := n.Dial("eu-nl-vu", "us-ca-ucb:svc"); err != nil {
		t.Fatalf("unrelated path affected by partition: %v", err)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	n := world(t)
	l, _ := n.Listen("eu-nl-vu:svc")
	defer l.Close()
	acc := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			acc <- c
		}
	}()
	c, err := n.Dial("eu-nl-tud", "eu-nl-vu:svc")
	if err != nil {
		t.Fatal(err)
	}
	server := <-acc

	recvDone := make(chan error, 1)
	go func() {
		_, _, err := server.Recv()
		recvDone <- err
	}()
	c.Close()
	select {
	case err := <-recvDone:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("Recv after peer close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on peer close")
	}
}

func TestPayloadIsolation(t *testing.T) {
	n := world(t)
	l, _ := n.Listen("eu-nl-vu:svc")
	defer l.Close()
	got := make(chan []byte, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		p, _, _ := c.Recv()
		got <- p
	}()
	c, err := n.Dial("eu-nl-tud", "eu-nl-vu:svc")
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("original")
	c.Send(buf)
	copy(buf, "CLOBBER!")
	if string(<-got) != "original" {
		t.Fatal("sender buffer reuse corrupted delivered frame")
	}
}

func TestFrameSizeLimit(t *testing.T) {
	n := world(t)
	l, _ := n.Listen("eu-nl-vu:svc")
	defer l.Close()
	go func() {
		if _, err := l.Accept(); err != nil {
			return
		}
	}()
	c, err := n.Dial("eu-nl-tud", "eu-nl-vu:svc")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(make([]byte, transport.MaxFrame+1)); !errors.Is(err, transport.ErrFrameSize) {
		t.Fatalf("oversized frame: %v", err)
	}
}

func TestConcurrentConnections(t *testing.T) {
	n := world(t)
	l, _ := n.Listen("us-ca-ucb:svc")
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					p, _, err := c.Recv()
					if err != nil {
						return
					}
					if err := c.Send(p); err != nil {
						return
					}
				}
			}()
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Dial("eu-nl-vu", "us-ca-ucb:svc")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				msg := []byte{byte(i), byte(j)}
				if err := c.Send(msg); err != nil {
					t.Error(err)
					return
				}
				p, _, err := c.Recv()
				if err != nil {
					t.Error(err)
					return
				}
				if p[0] != byte(i) || p[1] != byte(j) {
					t.Errorf("conn %d: echo mismatch", i)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestSitesSorted(t *testing.T) {
	n := world(t)
	sites := n.Sites()
	if len(sites) != 5 {
		t.Fatalf("len(Sites) = %d", len(sites))
	}
	for i := 1; i < len(sites); i++ {
		if sites[i-1].ID >= sites[i].ID {
			t.Fatal("Sites not sorted")
		}
	}
}

func TestLinkClassString(t *testing.T) {
	if Loopback.String() != "loopback" || WideArea.String() != "wide-area" {
		t.Fatal("LinkClass names wrong")
	}
	if LinkClass(99).String() == "" {
		t.Fatal("unknown LinkClass must still render")
	}
}
