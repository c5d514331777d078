package netsim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gdn/internal/transport"
)

// pair establishes a connection from -> to ("svc" listener on to) and
// returns both ends.
func pair(t *testing.T, n *Network, from, to string) (client, server transport.Conn) {
	t.Helper()
	l, err := n.Listen(to + ":svc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	c, err := n.Dial(from, to+":svc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s := <-accepted
	t.Cleanup(func() { s.Close() })
	return c, s
}

func TestPartitionOneWayIsAsymmetric(t *testing.T) {
	n := world(t)
	client, server := pair(t, n, "eu-nl-vu", "us-ca-ucb")

	n.PartitionOneWay("eu-nl-vu", "us-ca-ucb")

	// The cut direction fails at send time.
	if err := client.Send([]byte("req")); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("send on cut direction = %v, want ErrUnreachable", err)
	}
	// The reverse direction still flows on the same connection.
	if err := server.Send([]byte("resp")); err != nil {
		t.Fatalf("send on open direction: %v", err)
	}
	if p, _, err := client.Recv(); err != nil || string(p) != "resp" {
		t.Fatalf("recv on open direction = %q, %v", p, err)
	}
	// New dials fail from the cut side only.
	if _, err := n.Dial("eu-nl-vu", "us-ca-ucb:svc"); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("dial across cut = %v, want ErrUnreachable", err)
	}
	l, err := n.Listen("eu-nl-vu:back")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		if c, err := l.Accept(); err == nil {
			c.Close()
		}
	}()
	if _, err := n.Dial("us-ca-ucb", "eu-nl-vu:back"); err != nil {
		t.Fatalf("dial against cut direction: %v", err)
	}

	n.HealOneWay("eu-nl-vu", "us-ca-ucb")
	if err := client.Send([]byte("again")); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
}

func TestSymmetricPartitionIsBothOneWays(t *testing.T) {
	n := world(t)
	client, server := pair(t, n, "eu-nl-vu", "us-ca-ucb")

	n.Partition("eu-nl-vu", "us-ca-ucb")
	if err := client.Send([]byte("a")); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("client send = %v", err)
	}
	if err := server.Send([]byte("b")); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("server send = %v", err)
	}
	// Healing one direction restores only that direction.
	n.HealOneWay("us-ca-ucb", "eu-nl-vu")
	if err := server.Send([]byte("b")); err != nil {
		t.Fatalf("server send after one-way heal: %v", err)
	}
	if err := client.Send([]byte("a")); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("client send after one-way heal = %v", err)
	}
	n.Heal("eu-nl-vu", "us-ca-ucb")
	if err := client.Send([]byte("a")); err != nil {
		t.Fatalf("client send after heal: %v", err)
	}
}

func TestHealAllClearsEveryCut(t *testing.T) {
	n := world(t)
	n.Partition("eu-nl-vu", "us-ca-ucb")
	n.PartitionOneWay("ap-jp-ut", "eu-de-tub")
	n.HealAll()
	client, _ := pair(t, n, "eu-nl-vu", "us-ca-ucb")
	if err := client.Send([]byte("x")); err != nil {
		t.Fatalf("send after HealAll: %v", err)
	}
}

func TestCrashSeversEstablishedConns(t *testing.T) {
	n := world(t)
	client, _ := pair(t, n, "eu-nl-vu", "us-ca-ucb")

	n.Crash("us-ca-ucb")
	// The peer observes a closed connection, not a silent wedge.
	if _, _, err := client.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("recv from crashed peer = %v, want ErrClosed", err)
	}
	if _, err := n.Dial("eu-nl-vu", "us-ca-ucb:svc"); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("dial to crashed site = %v, want ErrUnreachable", err)
	}

	// After restart the surviving listener accepts again.
	n.Restart("us-ca-ucb")
	c2, err := n.Dial("eu-nl-vu", "us-ca-ucb:svc")
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	c2.Close()
}

// drain receives every frame already delivered to an end, without
// blocking.
func drain(t *testing.T, end transport.Conn) []string {
	t.Helper()
	var got []string
	for len(end.(*conn).in) > 0 {
		p, _, err := end.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(p))
		transport.PutFrame(p)
	}
	return got
}

func TestLossFaultDropsFramesSilently(t *testing.T) {
	n := world(t)
	client, server := pair(t, n, "eu-nl-vu", "us-ca-ucb")

	// At Loss 1 every send is dropped on the wire and nothing is ever
	// retransmitted successfully: the sender sees success, the
	// receiver sees a silent stall.
	n.SetLinkFaults(WideArea, LinkFaults{Loss: 1})
	defer n.ClearFaults()
	for _, p := range []string{"one", "two", "three"} {
		if err := client.Send([]byte(p)); err != nil {
			t.Fatalf("lossy send reported error: %v", err)
		}
	}
	if got := drain(t, server); len(got) != 0 {
		t.Fatalf("frames leaked through a fully lossy link: %q", got)
	}
	if st := n.FaultStats(); st.Lost != 3 {
		t.Fatalf("FaultStats.Lost = %d, want 3", st.Lost)
	}
}

func TestClearFaultsFlushesHeldFrameOnNextSend(t *testing.T) {
	n := world(t)
	client, server := pair(t, n, "eu-nl-vu", "us-ca-ucb")

	n.SetLinkFaults(WideArea, LinkFaults{Loss: 1})
	if err := client.Send([]byte("held")); err != nil {
		t.Fatal(err)
	}
	n.ClearFaults()
	if err := client.Send([]byte("next")); err != nil {
		t.Fatal(err)
	}
	// The retransmitted frame goes out ahead of the one behind it.
	if got := drain(t, server); len(got) != 2 || got[0] != "held" || got[1] != "next" {
		t.Fatalf("delivery order = %q, want [held next]", got)
	}
}

// lossPattern sends count frames across a fresh network seeded with
// seed under 30% loss, checks that every frame arrives exactly once
// and in order, and reports how many frames each send delivered — the
// seed-dependent part of the run.
func lossPattern(t *testing.T, seed int64, count int) string {
	t.Helper()
	n := world(t)
	n.SeedFaults(seed)
	client, server := pair(t, n, "eu-nl-vu", "us-ca-ucb")
	n.SetLinkFaults(WideArea, LinkFaults{Loss: 0.3})
	var pattern strings.Builder
	var got []string
	send := func(p string) {
		if err := client.Send([]byte(p)); err != nil {
			t.Fatal(err)
		}
		d := drain(t, server)
		fmt.Fprintf(&pattern, "%d,", len(d))
		got = append(got, d...)
	}
	for i := 0; i < count; i++ {
		send(fmt.Sprintf("f%03d", i))
	}
	n.ClearFaults()
	send("end")
	if len(got) != count+1 || got[count] != "end" {
		t.Fatalf("%d frames delivered for %d sent", len(got), count+1)
	}
	for i := 0; i < count; i++ {
		if want := fmt.Sprintf("f%03d", i); got[i] != want {
			t.Fatalf("delivery %d = %q, want %q: a lossy link duplicated, dropped or reordered a frame", i, got[i], want)
		}
	}
	if lost := n.FaultStats().Lost; lost == 0 {
		t.Fatal("30% loss over the run injected no loss")
	}
	return pattern.String()
}

func TestSeededLossDeliversEveryFrameOnceInOrder(t *testing.T) {
	lossPattern(t, 7, 200)
}

func TestJitterAddsVirtualCost(t *testing.T) {
	n := world(t)
	client, server := pair(t, n, "eu-nl-vu", "us-ca-ucb")

	if err := client.Send([]byte("clean")); err != nil {
		t.Fatal(err)
	}
	_, base, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	n.SetLinkFaults(WideArea, LinkFaults{Jitter: time.Second})
	defer n.ClearFaults()
	var jittered bool
	for i := 0; i < 32 && !jittered; i++ {
		if err := client.Send([]byte("jit")); err != nil {
			t.Fatal(err)
		}
		_, cost, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		jittered = cost > base
	}
	if !jittered {
		t.Fatal("no frame picked up jitter cost")
	}
}

func TestFaultPatternReplaysFromSeed(t *testing.T) {
	a := lossPattern(t, 42, 200)
	b := lossPattern(t, 42, 200)
	if a != b {
		t.Fatalf("same seed produced different loss patterns:\n%s\nvs\n%s", a, b)
	}
	c := lossPattern(t, 43, 200)
	if a == c {
		t.Fatal("different seeds produced identical loss patterns over 200 frames")
	}
}

func TestScheduleRunnerTimelineAndDigest(t *testing.T) {
	s := Schedule{
		Name: "demo",
		Seed: 7,
		Steps: []Step{
			{At: 2 * time.Second, Action: Action{Kind: ActHeal, A: "eu-nl-vu", B: "us-ca-ucb"}},
			{At: time.Second, Action: Action{Kind: ActPartitionOneWay, A: "eu-nl-vu", B: "us-ca-ucb"}},
			{At: 3 * time.Second, Action: Action{Kind: ActCrash, A: "us-ca-ucb"}},
			{At: 4 * time.Second, Action: Action{Kind: ActRestart, A: "us-ca-ucb"}},
		},
	}
	n := world(t)
	r := NewRunner(n, s)
	if fired := r.AdvanceTo(0); len(fired) != 0 {
		t.Fatalf("fired at T=0: %v", fired)
	}
	if fired := r.AdvanceTo(2 * time.Second); len(fired) != 2 {
		t.Fatalf("fired at T=2s: %v", fired)
	}
	// The one-way cut from step 1 is active until... step 2 healed it.
	client, _ := pair(t, n, "eu-nl-vu", "us-ca-ucb")
	if err := client.Send([]byte("x")); err != nil {
		t.Fatalf("send after heal step: %v", err)
	}
	rest := r.Finish()
	if len(rest) != 2 || !r.Done() {
		t.Fatalf("Finish fired %v, done=%v", rest, r.Done())
	}
	want := []string{
		"T=1s partition eu-nl-vu -> us-ca-ucb",
		"T=2s heal eu-nl-vu <-> us-ca-ucb",
		"T=3s crash us-ca-ucb",
		"T=4s restart us-ca-ucb",
	}
	got := r.Timeline()
	if len(got) != len(want) {
		t.Fatalf("timeline = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("timeline[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if d1, d2 := s.Digest(), s.Digest(); d1 != d2 || len(d1) != 12 {
		t.Fatalf("digest unstable: %q vs %q", d1, d2)
	}
}

func TestRandomScheduleIsDeterministic(t *testing.T) {
	sites := []string{"eu-nl-vu", "eu-de-tub", "us-ca-ucb", "ap-jp-ut"}
	a := RandomSchedule("r", 99, sites, 10*time.Second)
	b := RandomSchedule("r", 99, sites, 10*time.Second)
	if a.Digest() != b.Digest() {
		t.Fatal("same seed produced different schedules")
	}
	if len(a.Steps) < 4 {
		t.Fatalf("schedule too small: %d steps", len(a.Steps))
	}
	c := RandomSchedule("r", 100, sites, 10*time.Second)
	if a.Digest() == c.Digest() {
		t.Fatal("different seeds produced identical schedules")
	}
	// Every run ends healed.
	last := a.Steps[len(a.Steps)-1]
	if last.Action.Kind != ActClearFaults {
		t.Fatalf("schedule does not end with ActClearFaults: %v", last.Action)
	}
}
