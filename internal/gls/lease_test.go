package gls

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gdn/internal/ids"
)

// fakeClock is a controllable time source for lease tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_000_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// deployLeaseWorld deploys the standard test tree with a controllable
// clock and a disabled janitor, so tests drive expiry explicitly.
func deployLeaseWorld(t *testing.T) (*Tree, *fakeClock) {
	t.Helper()
	net := worldNet(t)
	clock := newFakeClock()
	tree, err := Deploy(net, worldSpec(), WithTreeClock(clock.Now), WithTreeSweep(-1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	return tree, clock
}

// longTTL is the lease of a server that stays alive for the rest of a
// test without renewing.
const longTTL = time.Hour

// attachOne is how tests register: it opens a session for ca's
// transport address at res's node and attaches ca to oid through it (a
// nil oid mints one).
func attachOne(t *testing.T, res *Resolver, oid ids.OID, ca ContactAddress, ttl time.Duration) (*ServerSession, ids.OID) {
	t.Helper()
	sess := openTestSession(t, res, ca.Address, ttl)
	oid, _, err := sess.Attach(oid, ca)
	if err != nil {
		t.Fatal(err)
	}
	return sess, oid
}

func TestLeaseExpiresOutOfLookups(t *testing.T) {
	tree, clock := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	far := mustResolver(t, tree, "us-ca-ucb", "us/ca")

	_, oid := attachOne(t, res, ids.Nil, testAddr("eu-nl-vu"), 10*time.Second)
	for _, r := range []*Resolver{res, far} {
		if addrs, _, err := r.Lookup(oid); err != nil || len(addrs) != 1 {
			t.Fatalf("lookup within lease: %v (%d addrs)", err, len(addrs))
		}
	}

	// Past the TTL the entry stops appearing even before any janitor
	// runs: expiry is enforced lazily at lookup time, also at the end
	// of a far client's descent along a still-installed pointer chain.
	clock.Advance(11 * time.Second)
	for _, r := range []*Resolver{res, far} {
		if _, _, err := r.Lookup(oid); !errors.Is(err, ErrNotFound) {
			t.Fatalf("lookup after expiry = %v, want ErrNotFound", err)
		}
	}
}

func TestLeaseRenewalKeepsEntryAlive(t *testing.T) {
	tree, clock := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	sess, oid := attachOne(t, res, ids.Nil, testAddr("eu-nl-vu"), 10*time.Second)
	// Heartbeat: renew every 6s; the entry must survive well past the
	// original TTL.
	for i := 0; i < 5; i++ {
		clock.Advance(6 * time.Second)
		if _, err := sess.Renew(); err != nil {
			t.Fatalf("renewal %d: %v", i, err)
		}
	}
	if addrs, _, err := res.Lookup(oid); err != nil || len(addrs) != 1 {
		t.Fatalf("lookup after renewals: %v (%d addrs)", err, len(addrs))
	}
	// Stop heartbeating: the lease ages out.
	clock.Advance(11 * time.Second)
	if _, _, err := res.Lookup(oid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup after heartbeats stop = %v, want ErrNotFound", err)
	}
	// A late renewal that beats the sweep revives the entry in place.
	if _, err := sess.Renew(); err != nil {
		t.Fatal(err)
	}
	if addrs, _, err := res.Lookup(oid); err != nil || len(addrs) != 1 {
		t.Fatalf("lookup after late renewal: %v (%d addrs)", err, len(addrs))
	}
}

func TestLeaseExpiryOfOneReplicaLeavesOthers(t *testing.T) {
	tree, clock := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	survivor := testAddr("eu-de-tu")
	_, oid := attachOne(t, res, ids.Nil, testAddr("eu-nl-vu"), 10*time.Second)
	attachOne(t, res, oid, survivor, longTTL)

	clock.Advance(11 * time.Second)
	addrs, _, err := res.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != survivor {
		t.Fatalf("addrs after one lease expired = %v, want just %v", addrs, survivor)
	}
}

func TestSweepTearsDownPointerChain(t *testing.T) {
	tree, clock := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	attachOne(t, res, ids.Nil, testAddr("eu-nl-vu"), 10*time.Second)
	root := tree.Nodes("root")[0]
	if root.Records() != 1 {
		t.Fatalf("root records after insert = %d, want 1 (the pointer chain)", root.Records())
	}

	clock.Advance(11 * time.Second)
	leaf := tree.Nodes("eu/nl")[0]
	if n := leaf.SweepExpired(); n != 1 {
		t.Fatalf("SweepExpired = %d, want 1", n)
	}
	if leaf.Records() != 0 {
		t.Fatalf("leaf records after sweep = %d, want 0", leaf.Records())
	}
	// The chain of forwarding pointers above the emptied record is torn
	// down too, so the tree does not accumulate entries for replicas
	// that stopped heartbeating.
	if root.Records() != 0 {
		t.Fatalf("root records after sweep = %d, want 0", root.Records())
	}
	if got := leaf.Stats().Expiries; got != 1 {
		t.Fatalf("leaf Expiries = %d, want 1", got)
	}
}

func TestDrainHidesAddressWhileOthersRemain(t *testing.T) {
	tree, _ := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	sick := testAddr("eu-nl-vu")
	healthy := testAddr("eu-de-tu")
	sess, oid := attachOne(t, res, ids.Nil, sick, 10*time.Second)
	attachOne(t, res, oid, healthy, longTTL)

	if _, err := sess.Drain(true); err != nil {
		t.Fatal(err)
	}
	addrs, _, err := res.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != healthy {
		t.Fatalf("addrs while drained = %v, want just %v", addrs, healthy)
	}

	// Undrain restores the address without any re-registration: the
	// lease state was never deleted.
	if _, err := sess.Drain(false); err != nil {
		t.Fatal(err)
	}
	if addrs, _, err = res.Lookup(oid); err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 {
		t.Fatalf("addrs after undrain = %v, want both", addrs)
	}
}

func TestDrainedReplicaDoesNotShadowHealthySibling(t *testing.T) {
	tree, _ := deployLeaseWorld(t)
	euRes := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	usRes := mustResolver(t, tree, "us-ca-ucb", "us/ca")

	sick := testAddr("eu-nl-vu")
	healthy := testAddr("us-ca-ucb")
	sess, oid := attachOne(t, euRes, ids.Nil, sick, 10*time.Second)
	usSess, _ := attachOne(t, usRes, oid, healthy, longTTL)
	if _, err := sess.Drain(true); err != nil {
		t.Fatal(err)
	}

	// A lookup whose search reaches the drained replica's subtree
	// first must keep going and find the healthy replica in the
	// sibling subtree — a draining replica never shadows a healthy
	// one, wherever it lives in the tree.
	for i := 0; i < 8; i++ {
		addrs, _, err := euRes.Lookup(oid)
		if err != nil {
			t.Fatal(err)
		}
		if len(addrs) != 1 || addrs[0] != healthy {
			t.Fatalf("lookup %d = %v, want just %v", i, addrs, healthy)
		}
	}

	// Once the healthy replica deregisters, the drained one is the
	// tree-wide last resort.
	if _, err := usSess.Detach(oid); err != nil {
		t.Fatal(err)
	}
	addrs, _, err := euRes.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != sick {
		t.Fatalf("last-resort lookup = %v, want %v", addrs, sick)
	}
}

func TestDrainedLastReplicaStillServes(t *testing.T) {
	tree, _ := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	only := testAddr("eu-nl-vu")
	sess, oid := attachOne(t, res, ids.Nil, only, 10*time.Second)
	if _, err := sess.Drain(true); err != nil {
		t.Fatal(err)
	}
	// A degraded replica beats no replica: when every live address is
	// draining, lookups keep returning them.
	addrs, _, err := res.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != only {
		t.Fatalf("addrs with all drained = %v, want %v", addrs, only)
	}
}

// TestRestartedServerIsNotDrained: a server drains its session and dies;
// its successor at the same transport address opens a fresh session,
// re-attaches the same entry and heartbeats. The drain belonged to the
// dead session, so a lookup beside the successor finds it, not only the
// remote replica.
func TestRestartedServerIsNotDrained(t *testing.T) {
	tree, clock := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	local, remote := testAddr("eu-nl-vu"), testAddr("eu-de-tu")

	dead, oid := attachOne(t, res, ids.Nil, local, 10*time.Second)
	attachOne(t, mustResolver(t, tree, "eu-de-tu", "eu/de"), oid, remote, longTTL)
	if _, err := dead.Drain(true); err != nil {
		t.Fatal(err)
	}

	successor, _ := attachOne(t, res, oid, local, 10*time.Second)
	for i := 0; i < 5; i++ {
		clock.Advance(6 * time.Second)
		if _, err := successor.Renew(); err != nil {
			t.Fatal(err)
		}
	}
	addrs, _, err := res.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != local {
		t.Fatalf("lookup beside the restarted server = %v, want just %v", addrs, local)
	}
}
