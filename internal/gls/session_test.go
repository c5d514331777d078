package gls

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"gdn/internal/ids"
	"gdn/internal/netsim"
)

// Registration-session tests: one leased session per server covers
// every attached entry, renewal is O(1) in the number of replicas,
// session death ages everything out within one TTL, and session state
// (including drain) survives snapshot/restore.

func openTestSession(t *testing.T, res *Resolver, addr string, ttl time.Duration) *ServerSession {
	t.Helper()
	sess, _, err := res.OpenSession(addr, ttl)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestSessionAttachRenewExpire(t *testing.T) {
	tree, clock := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	sess := openTestSession(t, res, "eu-nl-vu:gos-obj", 10*time.Second)

	ca := testAddr("eu-nl-vu")
	var oids []ids.OID
	for i := 0; i < 3; i++ {
		oid, _, err := sess.Attach(ids.Nil, ca)
		if err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		oids = append(oids, oid)
	}
	for _, oid := range oids {
		if addrs, _, err := res.Lookup(oid); err != nil || len(addrs) != 1 {
			t.Fatalf("lookup while session lives: %v (%d addrs)", err, len(addrs))
		}
	}

	// Renewals keep every attached entry alive well past the TTL —
	// without touching any entry individually.
	for i := 0; i < 5; i++ {
		clock.Advance(6 * time.Second)
		if _, err := sess.Renew(); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	for _, oid := range oids {
		if _, _, err := res.Lookup(oid); err != nil {
			t.Fatalf("lookup after renewals: %v", err)
		}
	}

	// Stop renewing: one TTL later every attached entry is gone from
	// lookups, before any janitor runs (lazy expiry).
	clock.Advance(11 * time.Second)
	for _, oid := range oids {
		if _, _, err := res.Lookup(oid); !errors.Is(err, ErrNotFound) {
			t.Fatalf("lookup after session expiry = %v, want ErrNotFound", err)
		}
	}
}

func TestSessionRenewalIsOneCallPerSubnode(t *testing.T) {
	tree, clock := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	sess := openTestSession(t, res, "eu-nl-vu:gos-obj", 10*time.Second)

	ca := testAddr("eu-nl-vu")
	for i := 0; i < 50; i++ {
		if _, _, err := sess.Attach(ids.Nil, ca); err != nil {
			t.Fatal(err)
		}
	}
	leaf := tree.Nodes("eu/nl")[0]
	before := leaf.Stats()

	for i := 0; i < 3; i++ {
		clock.Advance(3 * time.Second)
		if _, err := sess.Renew(); err != nil {
			t.Fatal(err)
		}
	}
	after := leaf.Stats()
	// The heartbeat is one batched renew: no per-entry inserts, however
	// many replicas ride the session.
	if got := after.Inserts - before.Inserts; got != 0 {
		t.Fatalf("renewals performed %d inserts, want 0", got)
	}
	if got := after.SessionRenews - before.SessionRenews; got != 3 {
		t.Fatalf("SessionRenews delta = %d, want 3", got)
	}
}

func TestSessionDeathAgesOut1000Replicas(t *testing.T) {
	tree, clock := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	sess := openTestSession(t, res, "eu-nl-vu:gos-obj", 10*time.Second)

	const n = 1000
	ca := testAddr("eu-nl-vu")
	oids := make([]ids.OID, n)
	for i := range oids {
		oid, _, err := sess.Attach(ids.Nil, ca)
		if err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		oids[i] = oid
	}
	leaf := tree.Nodes("eu/nl")[0]
	if got := leaf.Records(); got != n {
		t.Fatalf("leaf records = %d, want %d", got, n)
	}

	// The server dies (no renewals): within one TTL every entry is out
	// of lookups.
	clock.Advance(11 * time.Second)
	for _, i := range []int{0, 1, n / 2, n - 1} {
		if _, _, err := res.Lookup(oids[i]); !errors.Is(err, ErrNotFound) {
			t.Fatalf("lookup %d one TTL after death = %v, want ErrNotFound", i, err)
		}
	}

	// The sweep reclaims every record and tears down the pointer
	// chains, so the tree does not accumulate a dead server's entries.
	if got := leaf.SweepExpired(); got != n {
		t.Fatalf("SweepExpired = %d, want %d", got, n)
	}
	if got := leaf.Records(); got != 0 {
		t.Fatalf("leaf records after sweep = %d, want 0", got)
	}
	if got := tree.Nodes("root")[0].Records(); got != 0 {
		t.Fatalf("root records after sweep = %d, want 0", got)
	}
	if got := leaf.Sessions(); got != 0 {
		t.Fatalf("sessions after sweep = %d, want 0", got)
	}
}

func TestSessionCloseExpiresAttachedEntries(t *testing.T) {
	tree, _ := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	sess := openTestSession(t, res, "eu-nl-vu:gos-obj", 10*time.Second)

	oid, _, err := sess.Attach(ids.Nil, testAddr("eu-nl-vu"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.Lookup(oid); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// Orderly shutdown: no clock advance needed, the entries are gone
	// at once.
	if _, _, err := res.Lookup(oid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup after session close = %v, want ErrNotFound", err)
	}
	if got := tree.Nodes("eu/nl")[0].Sessions(); got != 0 {
		t.Fatalf("sessions after close = %d, want 0", got)
	}
}

func TestSessionDrainIsASessionAttribute(t *testing.T) {
	tree, _ := deployLeaseWorld(t)
	leaf := restartNode(t, tree, "eu/nl", t.TempDir())
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	sess := openTestSession(t, res, "eu-nl-vu:gos-obj", 10*time.Second)

	sick := ContactAddress{Protocol: "masterslave", Address: sess.Addr(), Impl: "pkg/1", Role: "master"}
	healthy := testAddr("eu-de-tu")
	oid, _, err := sess.Attach(ids.Nil, sick)
	if err != nil {
		t.Fatal(err)
	}
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

	// The drain survives a node restart with the session: the node
	// does not forget it until the next scrub pass.
	restartNode(t, tree, "eu/nl", leaf.cfg.StateDir)
	addrs, _, err = res.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != healthy {
		t.Fatalf("addrs after restore = %v, want drain remembered (just %v)", addrs, healthy)
	}

	if _, err := sess.Drain(false); err != nil {
		t.Fatal(err)
	}
	addrs, _, err = res.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 {
		t.Fatalf("addrs after undrain = %v, want both", addrs)
	}
}

func TestSnapshotPersistsLeaseDeadlines(t *testing.T) {
	tree, clock := deployLeaseWorld(t)
	leaf := restartNode(t, tree, "eu/nl", t.TempDir())
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	// Two servers' entries for one object. The short session has 6 of
	// its 10 seconds left when the node restarts.
	sess := openTestSession(t, res, "eu-nl-vu:gos-obj", 10*time.Second)
	survivor := testAddr("eu-de-tu")
	oid, _, err := sess.Attach(ids.Nil, testAddr("eu-nl-vu"))
	if err != nil {
		t.Fatal(err)
	}
	attachOne(t, res, oid, survivor, longTTL)
	clock.Advance(4 * time.Second)
	restartNode(t, tree, "eu/nl", leaf.cfg.StateDir)

	// The restarted session runs one full TTL on the restarted node's
	// clock: within it both entries serve.
	clock.Advance(9 * time.Second)
	addrs, _, err := res.Lookup(oid)
	if err != nil || len(addrs) != 2 {
		t.Fatalf("lookup within restored lease: %v (%d addrs)", err, len(addrs))
	}

	// Past it, the short session's entry is gone — a restarted node
	// can never keep a dead server's replicas alive.
	clock.Advance(2 * time.Second)
	addrs, _, err = res.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != survivor {
		t.Fatalf("addrs after restored lease expired = %v, want just %v", addrs, survivor)
	}
}

func TestSnapshotRestoreRenewRoundTrip(t *testing.T) {
	tree, clock := deployLeaseWorld(t)
	leaf := restartNode(t, tree, "eu/nl", t.TempDir())
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	sess := openTestSession(t, res, "eu-nl-vu:gos-obj", 10*time.Second)

	ca := testAddr("eu-nl-vu")
	var oids []ids.OID
	for i := 0; i < 4; i++ {
		oid, _, err := sess.Attach(ids.Nil, ca)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}

	// Restart the node from its state and keep heartbeating: the
	// restored session accepts renewals — no re-registration storm.
	leaf = restartNode(t, tree, "eu/nl", saveState(t, leaf))
	before := leaf.Stats()
	for i := 0; i < 4; i++ {
		clock.Advance(6 * time.Second)
		if _, err := sess.Renew(); err != nil {
			t.Fatalf("renew after restore: %v", err)
		}
	}
	if got := leaf.Stats().Inserts - before.Inserts; got != 0 {
		t.Fatalf("renewals after restore performed %d inserts, want 0 (session survived the restart)", got)
	}
	for _, oid := range oids {
		if _, _, err := res.Lookup(oid); err != nil {
			t.Fatalf("lookup after restore+renew: %v", err)
		}
	}
	// And once the server dies, the restored session still ages its
	// entries out.
	clock.Advance(11 * time.Second)
	if _, _, err := res.Lookup(oids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup after death = %v, want ErrNotFound", err)
	}
}

func TestSessionLossReattachesOnRenew(t *testing.T) {
	tree, _ := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	// Attach through a session.
	sess := openTestSession(t, res, "eu-nl-vu:gos-obj", 10*time.Second)
	ca := testAddr("eu-nl-vu")
	var oids []ids.OID
	for i := 0; i < 3; i++ {
		oid, _, err := sess.Attach(ids.Nil, ca)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}

	// The node restarts having lost everything: session and entries
	// are gone.
	restartNode(t, tree, "eu/nl", t.TempDir())
	if _, _, err := res.Lookup(oids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup after amnesiac restart = %v, want ErrNotFound", err)
	}

	// The next heartbeat learns the session is unknown, reopens it and
	// re-attaches every entry — the server repairs the node's memory.
	if _, err := sess.Renew(); err != nil {
		t.Fatalf("renew after session loss: %v", err)
	}
	for _, oid := range oids {
		if addrs, _, err := res.Lookup(oid); err != nil || len(addrs) != 1 {
			t.Fatalf("lookup after re-attach: %v (%d addrs)", err, len(addrs))
		}
	}
}

func TestRenewRepairsSnapshotRollback(t *testing.T) {
	tree, _ := deployLeaseWorld(t)
	leaf := restartNode(t, tree, "eu/nl", t.TempDir())
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	sess := openTestSession(t, res, "eu-nl-vu:gos-obj", 10*time.Second)

	ca := testAddr("eu-nl-vu")
	var oids []ids.OID
	for i := 0; i < 3; i++ {
		oid, _, err := sess.Attach(ids.Nil, ca)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	// Save the state, then attach two more entries the copy predates.
	saved := saveState(t, leaf)
	for i := 0; i < 2; i++ {
		oid, _, err := sess.Attach(ids.Nil, ca)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}

	// The node rolls back: the session is known (it is in the saved
	// state), but the two young attaches are gone — the dangerous
	// case, since a bare known/unknown bit would report all-is-well
	// forever.
	leaf = restartNode(t, tree, "eu/nl", saved)
	if _, _, err := res.Lookup(oids[4]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("young attach after rollback = %v, want ErrNotFound", err)
	}

	// The next heartbeat sees the node's digest disagree with its
	// books and re-attaches.
	if _, err := sess.Renew(); err != nil {
		t.Fatal(err)
	}
	for i, oid := range oids {
		if addrs, _, err := res.Lookup(oid); err != nil || len(addrs) != 1 {
			t.Fatalf("lookup %d after repairing rollback: %v (%d addrs)", i, err, len(addrs))
		}
	}
	// And once repaired, heartbeats go back to being pure renewals.
	before := leaf.Stats()
	if _, err := sess.Renew(); err != nil {
		t.Fatal(err)
	}
	if got := leaf.Stats().Inserts - before.Inserts; got != 0 {
		t.Fatalf("renew after repair performed %d inserts, want 0", got)
	}
}

func TestAttachUnknownSessionReopens(t *testing.T) {
	tree, _ := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	sess := openTestSession(t, res, "eu-nl-vu:gos-obj", 10*time.Second)

	// Node forgets the session before the first attach.
	restartNode(t, tree, "eu/nl", t.TempDir())
	oid, _, err := sess.Attach(ids.Nil, testAddr("eu-nl-vu"))
	if err != nil {
		t.Fatalf("attach after session loss: %v", err)
	}
	if addrs, _, err := res.Lookup(oid); err != nil || len(addrs) != 1 {
		t.Fatalf("lookup after reopened attach: %v (%d addrs)", err, len(addrs))
	}
}

// TestReattachIsOneMessagePerSubnode: repairing an amnesiac leaf must
// cost one batched OpSessionReattach round trip on the client<->leaf
// link, not one insert RPC per attached entry — the reopen storm a
// partition heal used to trigger.
func TestReattachIsOneMessagePerSubnode(t *testing.T) {
	net := worldNet(t)
	tree, err := Deploy(net, worldSpec())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	sess := openTestSession(t, res, "eu-nl-vu:gos-obj", 10*time.Second)

	const n = 40
	ca := testAddr("eu-nl-vu")
	var oids []ids.OID
	for i := 0; i < n; i++ {
		oid, _, err := sess.Attach(ids.Nil, ca)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}

	// The leaf restarts with no memory; the next heartbeat repairs it.
	restartNode(t, tree, "eu/nl", t.TempDir())
	net.ResetMeter()
	if _, err := sess.Renew(); err != nil {
		t.Fatal(err)
	}
	// Client and leaf share a site, so their traffic is the loopback
	// class: one renew plus one batched reattach, each a request and a
	// response — nothing proportional to the n attached entries. (The
	// leaf's pointer re-installs climb regional links and are excluded.)
	if got := net.Meter().Frames[netsim.Loopback]; got > 6 {
		t.Fatalf("repair cost %d loopback frames for %d entries, want a batched handful", got, n)
	}
	for _, oid := range oids {
		if addrs, _, err := res.Lookup(oid); err != nil || len(addrs) != 1 {
			t.Fatalf("lookup after batched re-attach: %v (%d addrs)", err, len(addrs))
		}
	}
}

// TestSessionCloseBoundedWhenLeafUnreachable: Close must not hang on a
// subnode that receives requests but cannot answer (the one-way
// partition); each per-subnode close is cut off by its deadline.
func TestSessionCloseBoundedWhenLeafUnreachable(t *testing.T) {
	net := worldNet(t)
	tree, err := Deploy(net, worldSpec())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	// The resolver lives one site over from its leaf node, so the link
	// between them can be cut one way.
	res := mustResolver(t, tree, "eu-de-tu", "eu/nl")
	sess := openTestSession(t, res, "eu-de-tu:gos-obj", 10*time.Second)
	if _, _, err := sess.Attach(ids.Nil, testAddr("eu-de-tu")); err != nil {
		t.Fatal(err)
	}

	old := sessionCloseTimeout
	sessionCloseTimeout = 250 * time.Millisecond
	t.Cleanup(func() { sessionCloseTimeout = old })

	// Responses from the leaf's site no longer reach the client: the
	// close request arrives, its answer does not.
	net.PartitionOneWay("eu-nl-vu", "eu-de-tu")
	start := time.Now()
	_, err = sess.Close()
	if err == nil {
		t.Fatal("close through a one-way partition must error")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("close took %v, want bounded by the per-subnode deadline", took)
	}
}

// TestRenewDeletesStaleEntries: when the node holds an entry the
// server's books do not — a Detach whose delete failed, an Attach whose
// answer was lost after the node applied it — the node's digest
// differs from the books'. The next renewal's replacing reattach
// removes the stale entry, and the one after repairs nothing.
func TestRenewDeletesStaleEntries(t *testing.T) {
	for _, tc := range []struct {
		name string
		// strand leaves one entry at the node that the session's books
		// do not hold, and returns its object.
		strand func(t *testing.T, net *netsim.Network, sess *ServerSession, oids []ids.OID) ids.OID
	}{
		{"failed-detach", func(t *testing.T, net *netsim.Network, sess *ServerSession, oids []ids.OID) ids.OID {
			net.Partition("eu-de-tu", "eu-nl-vu")
			defer net.Heal("eu-de-tu", "eu-nl-vu")
			if _, err := sess.Detach(oids[0]); err == nil {
				t.Fatal("detach through a partition must fail")
			}
			return oids[0]
		}},
		{"lost-attach", func(t *testing.T, net *netsim.Network, sess *ServerSession, _ []ids.OID) ids.OID {
			net.PartitionOneWay("eu-nl-vu", "eu-de-tu")
			defer net.HealOneWay("eu-nl-vu", "eu-de-tu")
			oid := ids.New()
			if _, _, err := sess.Attach(oid, testAddr("eu-de-tu")); err == nil {
				t.Fatal("attach whose answer is lost must fail")
			}
			return oid
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, tree := deployWorld(t)
			// The server lives one site over from its leaf, so the link
			// between them can be cut.
			res := mustResolver(t, tree, "eu-de-tu", "eu/nl")
			sess := openTestSession(t, res, "eu-de-tu:gos/obj", longTTL)
			const n = 100
			oids := make([]ids.OID, n)
			for i := range oids {
				oid, _, err := sess.Attach(ids.Nil, testAddr("eu-de-tu"))
				if err != nil {
					t.Fatal(err)
				}
				oids[i] = oid
			}
			stale := tc.strand(t, net, sess, oids)
			if _, _, err := res.Lookup(stale); err != nil {
				t.Fatalf("the node does not hold the stranded entry: %v", err)
			}

			if _, err := sess.Renew(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := res.Lookup(stale); !errors.Is(err, ErrNotFound) {
				t.Fatalf("stale entry after one renewal: lookup = %v, want ErrNotFound", err)
			}
			leaf := tree.Nodes("eu/nl")[0]
			before := leaf.Stats()
			if _, err := sess.Renew(); err != nil {
				t.Fatal(err)
			}
			if got := leaf.Stats().Inserts - before.Inserts; got != 0 {
				t.Fatalf("second renewal re-attached %d entries, want 0", got)
			}
		})
	}
}

// TestRenewStaleEntriesWaitForTheirSubnode: a subnode's stale entries
// are removed only once it answers the renewal. While one subnode of a
// two-subnode leaf takes requests but never answers, a renewal costs
// one timeout there — not one per stale entry it owns, which would
// hold up the other subnode's renewal past its lease — and the entries
// go on the first renewal after it answers again.
func TestRenewStaleEntriesWaitForTheirSubnode(t *testing.T) {
	net := worldNet(t)
	net.AddSite("eu-nl-os", "eu-nl", "eu")      // the server, local to the near subnode
	net.AddSite("eu-nl-far", "eu-nl-far", "eu") // the far subnode, regional to the server
	spec := worldSpec()
	spec.Children[0].Children[0].Sites = []string{"eu-nl-vu", "eu-nl-far"}
	tree, err := Deploy(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	res := mustResolver(t, tree, "eu-nl-os", "eu/nl")
	far := res.leaf.Addrs[1]
	sess := openTestSession(t, res, "eu-nl-os:gos/obj", longTTL)

	// While the far subnode's answers are cut off, each attach routed
	// there is applied but reported failed: a stale entry.
	const k = 6
	net.PartitionOneWay("eu-nl-far", "eu-nl-os")
	var stale []ids.OID
	for len(stale) < k {
		oid := ids.New()
		if res.leaf.Route(oid) != far {
			continue
		}
		if _, _, err := sess.Attach(oid, testAddr("eu-nl-os")); err == nil {
			t.Fatal("attach whose answer is lost must fail")
		}
		stale = append(stale, oid)
	}
	net.HealOneWay("eu-nl-far", "eu-nl-os")

	// Regional links stall silently: the far subnode never answers.
	const timeout = 150 * time.Millisecond
	res.client(far).Timeout = timeout
	net.SetLinkFaults(netsim.Regional, netsim.LinkFaults{Loss: 1})
	start := time.Now()
	if _, err := sess.Renew(); err == nil {
		t.Fatal("renewal at a silent subnode must fail")
	}
	if took := time.Since(start); took >= 4*timeout {
		t.Fatalf("renewal took %v with %d stale entries at the silent subnode, want about one %v timeout", took, k, timeout)
	}

	net.ClearFaults()
	if _, err := sess.Renew(); err != nil {
		t.Fatal(err)
	}
	for _, oid := range stale {
		if _, _, err := res.Lookup(oid); !errors.Is(err, ErrNotFound) {
			t.Fatalf("stale entry after the subnode answered: lookup = %v, want ErrNotFound", err)
		}
	}
	inserts := func() (n int64) {
		for _, node := range tree.Nodes("eu/nl") {
			n += node.Stats().Inserts
		}
		return n
	}
	before := inserts()
	if _, err := sess.Renew(); err != nil {
		t.Fatal(err)
	}
	if got := inserts() - before; got != 0 {
		t.Fatalf("renewal after the repair re-attached %d entries, want 0", got)
	}
}

// TestRenewRepairsSwapAfterRollback: the server attaches A, the node
// saves its state, the server attaches B and detaches A, and the node
// restarts from the saved state. Node and books then hold one entry
// each, but not the same one: only a digest of the entries tells the
// two apart, and only a replacing reattach removes A.
func TestRenewRepairsSwapAfterRollback(t *testing.T) {
	tree, _ := deployLeaseWorld(t)
	leaf := restartNode(t, tree, "eu/nl", t.TempDir())
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	sess := openTestSession(t, res, "eu-nl-vu:gos/obj", longTTL)

	a, _, err := sess.Attach(ids.Nil, testAddr("eu-nl-vu"))
	if err != nil {
		t.Fatal(err)
	}
	saved := saveState(t, leaf)
	b, _, err := sess.Attach(ids.Nil, testAddr("eu-nl-vu"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Detach(a); err != nil {
		t.Fatal(err)
	}
	restartNode(t, tree, "eu/nl", saved)

	if _, err := sess.Renew(); err != nil {
		t.Fatal(err)
	}
	if addrs, _, err := res.Lookup(b); err != nil || len(addrs) != 1 {
		t.Fatalf("attached entry after one renewal: %v (%d addrs)", err, len(addrs))
	}
	if _, _, err := res.Lookup(a); !errors.Is(err, ErrNotFound) {
		t.Fatalf("detached entry after one renewal: lookup = %v, want ErrNotFound", err)
	}
}

// TestReattachChangedContactAddressConverges: attaching an object again
// with a contact address that differs only in its role replaces the
// entry in the books, while the node holds both addresses. One renewal
// leaves only the new address, and the next renews without repairing.
func TestReattachChangedContactAddressConverges(t *testing.T) {
	tree, _ := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	sess := openTestSession(t, res, "eu-nl-vu:gos/obj", longTTL)

	ca := testAddr("eu-nl-vu")
	moved := ca
	moved.Role = "master"
	oid, _, err := sess.Attach(ids.Nil, ca)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Attach(oid, moved); err != nil {
		t.Fatal(err)
	}

	if _, err := sess.Renew(); err != nil {
		t.Fatal(err)
	}
	addrs, _, err := res.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != moved {
		t.Fatalf("addrs after one renewal = %v, want just %v", addrs, moved)
	}
	leaf := tree.Nodes("eu/nl")[0]
	before := leaf.Stats()
	if _, err := sess.Renew(); err != nil {
		t.Fatal(err)
	}
	if got := leaf.Stats().Inserts - before.Inserts; got != 0 {
		t.Fatalf("second renewal re-attached %d entries, want 0", got)
	}
}

// TestAttachDuringRepairIsNeverDropped races attaches against renewals
// forced into repair: the leaf restarts from a saved state older than
// the session's entries, and attaches applied at the node but not yet
// in the books make the digests differ. A repair replaces the entries
// riding the session with its snapshot of the books, so it must not
// run while an Attach is in flight: every Attach that returned success
// resolves once the next renewal completes. Run it under -race.
func TestAttachDuringRepairIsNeverDropped(t *testing.T) {
	tree, _ := deployLeaseWorld(t)
	leaf := restartNode(t, tree, "eu/nl", t.TempDir())
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	sess := openTestSession(t, res, "eu-nl-vu:gos/obj", longTTL)
	saved := saveState(t, leaf)

	var mu sync.Mutex
	var acked []ids.OID
	checked := 0
	// check renews, then looks up every entry acknowledged since the
	// last check.
	check := func() error {
		if _, err := sess.Renew(); err != nil {
			return err
		}
		mu.Lock()
		fresh := slices.Clone(acked[checked:])
		checked = len(acked)
		mu.Unlock()
		for _, oid := range fresh {
			if _, _, err := res.Lookup(oid); err != nil {
				return fmt.Errorf("acknowledged %s: %w", oid.Short(), err)
			}
		}
		return nil
	}
	for round := 0; round < 3; round++ {
		restartNode(t, tree, "eu/nl", saved)
		checked = 0 // the rollback lost every entry: check them all again
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					oid, _, err := sess.Attach(ids.Nil, testAddr("eu-nl-vu"))
					if err != nil {
						t.Errorf("attach: %v", err)
						return
					}
					mu.Lock()
					acked = append(acked, oid)
					mu.Unlock()
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for attaching := true; attaching; {
			select {
			case <-done:
				attaching = false
			default:
			}
			if err := check(); err != nil {
				<-done
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}

// TestRenewDuringAttachDoesNotRepair: a renewal answered while an
// Attach is in flight sees the node's digest include the entry the
// books do not hold yet. It renews again once no Attach is in flight,
// finds the digests equal, and sends no reattach.
func TestRenewDuringAttachDoesNotRepair(t *testing.T) {
	tree, _ := deployLeaseWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	sess := openTestSession(t, res, "eu-nl-vu:gos/obj", longTTL)
	leaf := tree.Nodes("eu/nl")[0]

	// An Attach in flight: its entry is at the node, not in the books.
	oid, ca := ids.New(), testAddr("eu-nl-vu")
	sess.repairMu.RLock()
	if _, err := sess.insert(oid, ca); err != nil {
		t.Fatal(err)
	}
	opens := leaf.Stats().SessionOpens // each reattach counts as an open
	renewed := make(chan error, 1)
	go func() {
		_, err := sess.Renew()
		renewed <- err
	}()
	// A writer waiting for repairMu turns new readers away.
	for sess.repairMu.TryRLock() {
		sess.repairMu.RUnlock()
		select {
		case err := <-renewed:
			t.Fatalf("renewal returned (%v) without wanting a repair", err)
		case <-time.After(time.Millisecond):
		}
	}
	sess.mu.Lock()
	sess.book(oid, ca, false)
	sess.mu.Unlock()
	sess.repairMu.RUnlock()

	if err := <-renewed; err != nil {
		t.Fatal(err)
	}
	if got := leaf.Stats().SessionOpens - opens; got != 0 {
		t.Fatalf("the renewal sent %d reattaches, want 0", got)
	}
	if _, _, err := res.Lookup(oid); err != nil {
		t.Fatal(err)
	}
}

// TestRenewIsO1PerSubnode: on a two-subnode leaf a renewal allocates
// the same with 10 and with 10,000 attached entries — it neither walks
// nor copies the books.
func TestRenewIsO1PerSubnode(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	allocs := map[int]float64{}
	for _, n := range []int{10, 10_000} {
		spec := worldSpec()
		spec.Children[0].Children[0].Sites = []string{"eu-nl-vu", "eu-nl-vu"}
		tree, err := Deploy(worldNet(t), spec, WithTreeSweep(-1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tree.Close)
		res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
		sess := openTestSession(t, res, "eu-nl-vu:gos/obj", longTTL)
		entries := make(map[ids.OID]ContactAddress, n)
		for len(entries) < n {
			entries[ids.New()] = testAddr("eu-nl-vu")
		}
		if _, err := sess.AttachBatch(entries); err != nil {
			t.Fatal(err)
		}
		allocs[n] = testing.AllocsPerRun(50, func() {
			if _, err := sess.Renew(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[10] != allocs[10_000] {
		t.Fatalf("renewal allocates %v with 10 entries, %v with 10,000", allocs[10], allocs[10_000])
	}
}
