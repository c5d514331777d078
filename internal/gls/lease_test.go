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

// attachOne opens a session for the contact address's transport
// address and attaches ca through it under a fresh identifier.
func attachOne(t *testing.T, res *Resolver, ca ContactAddress, ttl time.Duration) (*ServerSession, ids.OID) {
	t.Helper()
	sess := openTestSession(t, res, ca.Address, ttl)
	oid, _, err := sess.Attach(ids.Nil, ca)
	if err != nil {
		t.Fatal(err)
	}
	return sess, oid
}

func TestLeaseExpiresOutOfLookups(t *testing.T) {
	tree, clock := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	far := mustResolver(t, tree, "us-ca-ucb", "us/ca")

	_, oid := attachOne(t, res, testAddr("eu-nl-vu"), 10*time.Second)
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

	sess, oid := attachOne(t, res, testAddr("eu-nl-vu"), 10*time.Second)
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

	permanent := testAddr("eu-de-tu")
	_, oid := attachOne(t, res, testAddr("eu-nl-vu"), 10*time.Second)
	if _, _, err := res.Insert(oid, permanent); err != nil {
		t.Fatal(err)
	}

	clock.Advance(11 * time.Second)
	addrs, _, err := res.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != permanent {
		t.Fatalf("addrs after one lease expired = %v, want just %v", addrs, permanent)
	}
}

func TestSweepTearsDownPointerChain(t *testing.T) {
	tree, clock := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	attachOne(t, res, testAddr("eu-nl-vu"), 10*time.Second)
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
	sess, oid := attachOne(t, res, sick, 10*time.Second)
	if _, _, err := res.Insert(oid, healthy); err != nil {
		t.Fatal(err)
	}
	// A permanent registration at the drained transport address is
	// hidden too: the drain is address-wide, not per session entry.
	permOID, _, err := res.Insert(ids.Nil, sick)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.Insert(permOID, healthy); err != nil {
		t.Fatal(err)
	}

	if _, err := sess.Drain(true); err != nil {
		t.Fatal(err)
	}
	for _, id := range []ids.OID{oid, permOID} {
		addrs, _, err := res.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(addrs) != 1 || addrs[0] != healthy {
			t.Fatalf("addrs while drained = %v, want just %v", addrs, healthy)
		}
	}

	// Undrain restores the address without any re-registration: the
	// lease state was never deleted.
	if _, err := sess.Drain(false); err != nil {
		t.Fatal(err)
	}
	for _, id := range []ids.OID{oid, permOID} {
		addrs, _, err := res.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(addrs) != 2 {
			t.Fatalf("addrs after undrain = %v, want both", addrs)
		}
	}
}

func TestDrainedReplicaDoesNotShadowHealthySibling(t *testing.T) {
	tree, _ := deployLeaseWorld(t)
	euRes := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	usRes := mustResolver(t, tree, "us-ca-ucb", "us/ca")

	sick := testAddr("eu-nl-vu")
	healthy := testAddr("us-ca-ucb")
	sess, oid := attachOne(t, euRes, sick, 10*time.Second)
	if _, _, err := usRes.Insert(oid, healthy); err != nil {
		t.Fatal(err)
	}
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
	if _, err := usRes.Delete(oid, healthy.Address); err != nil {
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
	sess, oid := attachOne(t, res, only, 10*time.Second)
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
