package gls

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gdn/internal/ids"
	"gdn/internal/netsim"
	"gdn/internal/obs"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/wire"
)

// worldNet builds a two-region world with two leaf domains per region.
func worldNet(t *testing.T) *netsim.Network {
	t.Helper()
	n := netsim.New(nil)
	n.AddSite("root-site", "core", "core")
	n.AddSite("eu-hub", "eu-hub", "eu")
	n.AddSite("us-hub", "us-hub", "us")
	n.AddSite("eu-nl-vu", "eu-nl", "eu")
	n.AddSite("eu-de-tu", "eu-de", "eu")
	n.AddSite("us-ca-ucb", "us-ca", "us")
	n.AddSite("us-ny-cu", "us-ny", "us")
	return n
}

// worldSpec is the matching three-level domain hierarchy.
func worldSpec() DomainSpec {
	return DomainSpec{
		Name:  "root",
		Sites: []string{"root-site"},
		Children: []DomainSpec{
			{Name: "eu", Sites: []string{"eu-hub"}, Children: []DomainSpec{
				Leaf("eu/nl", "eu-nl-vu"),
				Leaf("eu/de", "eu-de-tu"),
			}},
			{Name: "us", Sites: []string{"us-hub"}, Children: []DomainSpec{
				Leaf("us/ca", "us-ca-ucb"),
				Leaf("us/ny", "us-ny-cu"),
			}},
		},
	}
}

func deployWorld(t *testing.T) (*netsim.Network, *Tree) {
	t.Helper()
	net := worldNet(t)
	tree, err := Deploy(net, worldSpec())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	return net, tree
}

func mustResolver(t *testing.T, tree *Tree, site, domain string) *Resolver {
	t.Helper()
	r, err := tree.Resolver(site, domain)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func testAddr(site string) ContactAddress {
	return ContactAddress{Protocol: "masterslave", Address: site + ":gos/obj", Impl: "pkg/1", Role: "slave"}
}

func TestInsertLookupSameLeaf(t *testing.T) {
	_, tree := deployWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	_, oid := attachOne(t, res, ids.Nil, testAddr("eu-nl-vu"), longTTL)
	if oid.IsNil() {
		t.Fatal("attach must allocate an OID")
	}

	addrs, cost, err := res.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != testAddr("eu-nl-vu") {
		t.Fatalf("addrs = %v", addrs)
	}
	if cost <= 0 {
		t.Fatal("lookup must report positive virtual cost")
	}
}

func TestLookupCostProportionalToDistance(t *testing.T) {
	_, tree := deployWorld(t)
	near := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	sameRegion := mustResolver(t, tree, "eu-de-tu", "eu/de")
	far := mustResolver(t, tree, "us-ca-ucb", "us/ca")

	_, oid := attachOne(t, near, ids.Nil, testAddr("eu-nl-vu"), longTTL)

	_, costNear, err := near.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	_, costRegion, err := sameRegion.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	_, costFar, err := far.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}

	if !(costNear < costRegion && costRegion < costFar) {
		t.Fatalf("lookup cost must grow with distance: near=%v region=%v far=%v",
			costNear, costRegion, costFar)
	}
}

func TestLookupFindsNearestReplica(t *testing.T) {
	_, tree := deployWorld(t)
	eu := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	us := mustResolver(t, tree, "us-ca-ucb", "us/ca")

	_, oid := attachOne(t, eu, ids.Nil, testAddr("eu-nl-vu"), longTTL)
	attachOne(t, us, oid, testAddr("us-ca-ucb"), longTTL)

	// Each client's lookup should terminate at its local replica without
	// consulting the other region.
	addrs, _, err := eu.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0].Address != "eu-nl-vu:gos/obj" {
		t.Fatalf("eu lookup = %v, want local replica", addrs)
	}
	addrs, _, err = us.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0].Address != "us-ca-ucb:gos/obj" {
		t.Fatalf("us lookup = %v, want local replica", addrs)
	}
}

func TestLookupFromReplicalessLeafDescends(t *testing.T) {
	_, tree := deployWorld(t)
	eu := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	de := mustResolver(t, tree, "eu-de-tu", "eu/de")

	_, oid := attachOne(t, eu, ids.Nil, testAddr("eu-nl-vu"), longTTL)

	// The German client has no local entry: the lookup climbs to "eu",
	// finds a forwarding pointer, and descends into eu/nl.
	addrs, _, err := de.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0].Address != "eu-nl-vu:gos/obj" {
		t.Fatalf("descend lookup = %v", addrs)
	}
}

func TestLookupNotFound(t *testing.T) {
	_, tree := deployWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	_, _, err := res.Lookup(ids.Derive("nobody"))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestDeleteTearsDownPointerChain(t *testing.T) {
	_, tree := deployWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	sess, oid := attachOne(t, res, ids.Nil, testAddr("eu-nl-vu"), longTTL)

	// The attach must have installed pointers at eu and root.
	for _, domain := range []string{"eu/nl", "eu", "root"} {
		if got := tree.Nodes(domain)[0].Records(); got != 1 {
			t.Fatalf("%s records = %d before delete, want 1", domain, got)
		}
	}

	if _, err := sess.Detach(oid); err != nil {
		t.Fatal(err)
	}
	for _, domain := range []string{"eu/nl", "eu", "root"} {
		if got := tree.Nodes(domain)[0].Records(); got != 0 {
			t.Fatalf("%s records = %d after delete, want 0", domain, got)
		}
	}

	if _, _, err := res.Lookup(oid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup after delete = %v, want ErrNotFound", err)
	}
}

// TestDeleteRacingReinsertKeepsPointerChain: a delete empties a leaf
// record, and while the parent holds its pointer removal the object is
// inserted at the leaf again. The insert finds the parent's pointer
// still there and stops; the removal then lands. The delete's teardown
// sees that the record came back and installs the chain again, so the
// object still resolves from another leaf.
func TestDeleteRacingReinsertKeepsPointerChain(t *testing.T) {
	net := worldNet(t)
	ref := func(addr string) Ref { return Ref{Addrs: []string{addr}} }
	start := func(domain, site string, parent Ref) *Node {
		n, err := Start(net, Config{Domain: domain, Site: site, Addr: site + ":gls", Self: ref(site + ":gls"), Parent: parent, SweepEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	root := start("root", "root-site", Ref{})

	// The gate is the near leaf's parent: it forwards every request to
	// the root, holding the first pointer removal until released.
	fwd := rpc.NewClients(net, "eu-hub")
	t.Cleanup(func() { fwd.Close() })
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	gate, err := rpc.Serve(net, "eu-hub:gate", func(call *rpc.Call) ([]byte, error) {
		if call.Op == OpRemovePtr {
			once.Do(func() { close(held); <-release })
		}
		resp, _, err := fwd.Get(root.Addr()).Call(obs.SpanContext{}, call.Op, call.Body)
		return resp, err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gate.Close() })
	near := start("eu/nl", "eu-nl-vu", ref("eu-hub:gate"))
	start("us/ca", "us-ca-ucb", ref(root.Addr()))
	res := NewResolver(net, "eu-nl-vu", ref(near.Addr()))
	far := NewResolver(net, "us-ca-ucb", ref("us-ca-ucb:gls"))
	t.Cleanup(func() { res.Close(); far.Close() })

	sess, oid := attachOne(t, res, ids.Nil, testAddr("eu-nl-vu"), longTTL)
	detached := make(chan error, 1)
	go func() {
		_, err := sess.Detach(oid)
		detached <- err
	}()
	<-held
	if _, _, err := sess.Attach(oid, testAddr("eu-nl-vu")); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-detached; err != nil {
		t.Fatal(err)
	}
	if addrs, _, err := far.Lookup(oid); err != nil || len(addrs) != 1 {
		t.Fatalf("lookup from another leaf after the race: %v (%d addrs)", err, len(addrs))
	}
}

func TestDeleteOneOfTwoReplicasKeepsOther(t *testing.T) {
	_, tree := deployWorld(t)
	eu := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	us := mustResolver(t, tree, "us-ca-ucb", "us/ca")

	sess, oid := attachOne(t, eu, ids.Nil, testAddr("eu-nl-vu"), longTTL)
	attachOne(t, us, oid, testAddr("us-ca-ucb"), longTTL)
	if _, err := sess.Detach(oid); err != nil {
		t.Fatal(err)
	}

	// Root must still point at the US subtree.
	addrs, _, err := eu.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0].Address != "us-ca-ucb:gos/obj" {
		t.Fatalf("post-delete lookup = %v", addrs)
	}
}

func TestInsertIdempotent(t *testing.T) {
	_, tree := deployWorld(t)
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	sess, oid := attachOne(t, res, ids.Nil, testAddr("eu-nl-vu"), longTTL)
	if _, _, err := sess.Attach(oid, testAddr("eu-nl-vu")); err != nil {
		t.Fatal(err)
	}
	addrs, _, err := res.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 {
		t.Fatalf("duplicate insert must not duplicate the address: %v", addrs)
	}
}

func TestInsertAtIntermediateNode(t *testing.T) {
	_, tree := deployWorld(t)
	// The server's session is opened at "eu", so its entries live there.
	_, oid := attachOne(t, mustResolver(t, tree, "eu-nl-vu", "eu"), ids.Nil, testAddr("eu-nl-vu"), longTTL)

	// The address lives at "eu": both European leaves find it, and the
	// leaf nodes hold no state for it.
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	de := mustResolver(t, tree, "eu-de-tu", "eu/de")
	for _, r := range []*Resolver{res, de} {
		addrs, _, err := r.Lookup(oid)
		if err != nil {
			t.Fatal(err)
		}
		if len(addrs) != 1 {
			t.Fatalf("addrs = %v", addrs)
		}
	}
	if got := tree.Nodes("eu/nl")[0].Records(); got != 0 {
		t.Fatalf("leaf records = %d, want 0 (address stored at intermediate)", got)
	}
}

func TestMultipleChildPointersRandomDescent(t *testing.T) {
	_, tree := deployWorld(t)
	eu := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	de := mustResolver(t, tree, "eu-de-tu", "eu/de")
	us := mustResolver(t, tree, "us-ca-ucb", "us/ca")

	_, oid := attachOne(t, eu, ids.Nil, testAddr("eu-nl-vu"), longTTL)
	attachOne(t, de, oid, testAddr("eu-de-tu"), longTTL)

	// The US client's lookup reaches the root, which holds one pointer
	// (to eu); eu holds two pointers and picks one at random. Both
	// replicas must be reachable over repeated lookups.
	seen := make(map[string]bool)
	for i := 0; i < 64; i++ {
		addrs, _, err := us.Lookup(oid)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range addrs {
			seen[a.Address] = true
		}
	}
	if len(seen) != 2 {
		t.Fatalf("random descent saw replicas %v, want both", seen)
	}
}

// TestRandomDescentReplaysSeed: the random choice among forwarding
// pointers follows Config.Seed, so two trees deployed alike answer the
// same sequence of lookups with the same replicas.
func TestRandomDescentReplaysSeed(t *testing.T) {
	oid := ids.Derive("replayed")
	answers := func() (seq []string) {
		_, tree := deployWorld(t)
		attachOne(t, mustResolver(t, tree, "eu-nl-vu", "eu/nl"), oid, testAddr("eu-nl-vu"), longTTL)
		attachOne(t, mustResolver(t, tree, "eu-de-tu", "eu/de"), oid, testAddr("eu-de-tu"), longTTL)
		us := mustResolver(t, tree, "us-ca-ucb", "us/ca")
		for i := 0; i < 32; i++ {
			addrs, _, err := us.Lookup(oid)
			if err != nil {
				t.Fatal(err)
			}
			seq = append(seq, addrs[0].Address)
		}
		return seq
	}
	first := answers()
	for run := 0; run < 3; run++ {
		if got := answers(); !slices.Equal(got, first) {
			t.Fatalf("run %d descended to %v, the first run to %v", run, got, first)
		}
	}
}

func TestSubnodePartitioningSpreadsLoad(t *testing.T) {
	net := worldNet(t)
	net.AddSite("root-2", "core", "core")
	net.AddSite("root-3", "core", "core")
	net.AddSite("root-4", "core", "core")
	spec := worldSpec()
	spec.Sites = []string{"root-site", "root-2", "root-3", "root-4"}
	tree, err := Deploy(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	sess := openTestSession(t, res, "eu-nl-vu:gos/obj", longTTL)
	const objects = 64
	oids := make([]ids.OID, 0, objects)
	for i := 0; i < objects; i++ {
		oid, _, err := sess.Attach(ids.Nil, testAddr("eu-nl-vu"))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}

	// Force traffic through the root: look up from a leaf with no local
	// entry so the request climbs all the way.
	far := mustResolver(t, tree, "us-ca-ucb", "us/ca")
	for _, oid := range oids {
		if _, _, err := far.Lookup(oid); err != nil {
			t.Fatal(err)
		}
	}

	// Pointer installs and descents must be spread over all four
	// subnodes, and each subnode must only hold its own hash share.
	busy := 0
	total := int64(0)
	for _, node := range tree.Nodes("root") {
		s := node.Stats()
		total += s.Total()
		if s.Total() > 0 {
			busy++
		}
	}
	if busy != 4 {
		t.Fatalf("busy root subnodes = %d, want 4", busy)
	}
	records := 0
	for _, node := range tree.Nodes("root") {
		records += node.Records()
	}
	if records != objects {
		t.Fatalf("root records across subnodes = %d, want %d", records, objects)
	}
}

func TestSnapshotRestore(t *testing.T) {
	_, tree := deployWorld(t)
	leaf := restartNode(t, tree, "eu/nl", t.TempDir())
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	sess := openTestSession(t, res, "eu-nl-vu:gos/obj", longTTL)

	var oids []ids.OID
	for i := 0; i < 10; i++ {
		oid, _, err := sess.Attach(ids.Nil, testAddr("eu-nl-vu"))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	saved := saveState(t, leaf)

	// A restart that lost all records, then recovery from the copy.
	if leaf = restartNode(t, tree, "eu/nl", t.TempDir()); leaf.Records() != 0 {
		t.Fatal("node must be empty after a restart on an empty directory")
	}
	if leaf = restartNode(t, tree, "eu/nl", saved); leaf.Records() != len(oids) {
		t.Fatalf("restored records = %d, want %d", leaf.Records(), len(oids))
	}
	for _, oid := range oids {
		if _, _, err := res.Lookup(oid); err != nil {
			t.Fatalf("lookup %s after restore: %v", oid.Short(), err)
		}
	}
}

func TestAdmissionControl(t *testing.T) {
	net := worldNet(t)
	authority, err := sec.NewAuthority("gdn-root")
	if err != nil {
		t.Fatal(err)
	}
	glsCreds, err := sec.NewCredentials(authority, sec.Principal(sec.RoleGLS, "tree"), sec.RoleGLS)
	if err != nil {
		t.Fatal(err)
	}
	gosCreds, err := sec.NewCredentials(authority, sec.Principal(sec.RoleGOS, "eu-nl-vu"), sec.RoleGOS)
	if err != nil {
		t.Fatal(err)
	}
	userCreds, err := sec.NewCredentials(authority, sec.Principal(sec.RoleUser, "mallory"), sec.RoleUser)
	if err != nil {
		t.Fatal(err)
	}

	tree, err := Deploy(net, worldSpec(), WithTreeAuth(&sec.Config{
		Creds:        glsCreds,
		TrustAnchors: authority.Anchors(),
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	leaf, _ := tree.Ref("eu/nl")
	gos := NewResolver(net, "eu-nl-vu", leaf, WithResolverAuth(&sec.Config{
		Creds:        gosCreds,
		TrustAnchors: authority.Anchors(),
	}))
	defer gos.Close()
	user := NewResolver(net, "eu-de-tu", leaf, WithResolverAuth(&sec.Config{
		Creds:        userCreds,
		TrustAnchors: authority.Anchors(),
	}))
	defer user.Close()

	// An object server may register; a user may not (paper §6.1 req 2),
	// neither through a session of its own nor by attaching to one whose
	// identifier it learned.
	sess, oid := attachOne(t, gos, ids.Nil, testAddr("eu-nl-vu"), longTTL)
	refused := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("user %s must be rejected", what)
		}
		if !strings.Contains(err.Error(), "unauthorized") && !strings.Contains(err.Error(), "not authorized") {
			t.Fatalf("unexpected rejection of user %s: %v", what, err)
		}
	}
	_, _, err = user.OpenSession("eu-de-tu:gos/obj", longTTL)
	refused("session open", err)
	evil := ids.New()
	w := wire.NewWriter(96)
	w.OID(evil)
	testAddr("eu-de-tu").encode(w)
	w.OID(sess.ID())
	_, _, err = user.client(leaf.Route(evil)).Call(obs.SpanContext{}, OpInsert, w.Bytes())
	refused("insert into another server's session", err)
	if _, _, err := gos.Lookup(evil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup of the refused insert = %v, want ErrNotFound", err)
	}
	w = wire.NewWriter(64)
	w.OID(oid)
	w.Str("eu-nl-vu:gos/obj")
	if _, _, err := user.client(leaf.Route(oid)).Call(obs.SpanContext{}, OpDelete, w.Bytes()); err == nil {
		t.Fatal("user delete must be rejected")
	}

	// Anyone — even a user — may look up.
	if _, _, err := user.Lookup(oid); err != nil {
		t.Fatalf("user lookup: %v", err)
	}
}

func TestRouteConsistency(t *testing.T) {
	// Route must be stable and in range for any subnode count — the
	// partitioning invariant every node relies on.
	f := func(seed int64, n uint8) bool {
		count := int(n%16) + 1
		ref := Ref{Addrs: make([]string, count)}
		for i := range ref.Addrs {
			ref.Addrs[i] = fmt.Sprintf("site-%d:gls", i)
		}
		rnd := rand.New(rand.NewSource(seed))
		var oid ids.OID
		rnd.Read(oid[:])
		a := ref.Route(oid)
		b := ref.Route(oid)
		if a != b {
			return false
		}
		for _, addr := range ref.Addrs {
			if addr == a {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomChurnInvariant(t *testing.T) {
	// Property: after an arbitrary interleaving of attaches and detaches
	// that ends with every address detached, the whole tree is empty —
	// no leaked records or dangling pointers anywhere.
	_, tree := deployWorld(t)
	leaves := []string{"eu/nl", "eu/de", "us/ca", "us/ny"}
	sites := []string{"eu-nl-vu", "eu-de-tu", "us-ca-ucb", "us-ny-cu"}
	sessions := make([]*ServerSession, len(leaves))
	for i := range leaves {
		sessions[i] = openTestSession(t, mustResolver(t, tree, sites[i], leaves[i]), sites[i]+":gos/obj", longTTL)
	}

	rnd := rand.New(rand.NewSource(42))
	type placement struct {
		oid  ids.OID
		leaf int
	}
	var live []placement
	for step := 0; step < 300; step++ {
		if len(live) == 0 || rnd.Intn(2) == 0 {
			leaf := rnd.Intn(len(leaves))
			oid, _, err := sessions[leaf].Attach(ids.Nil, testAddr(sites[leaf]))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, placement{oid, leaf})
		} else {
			i := rnd.Intn(len(live))
			p := live[i]
			if _, err := sessions[p.leaf].Detach(p.oid); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
	}
	for _, p := range live {
		if _, err := sessions[p.leaf].Detach(p.oid); err != nil {
			t.Fatal(err)
		}
	}

	for _, domain := range tree.Domains() {
		for i, node := range tree.Nodes(domain) {
			if got := node.Records(); got != 0 {
				t.Fatalf("domain %s subnode %d: %d leaked records", domain, i, got)
			}
		}
	}
}

func TestEncodeDecodeAddrsRoundTrip(t *testing.T) {
	f := func(proto, addr, impl, role string) bool {
		if len(proto) > 100 || len(addr) > 100 || len(impl) > 100 || len(role) > 100 {
			return true
		}
		in := []ContactAddress{{Protocol: proto, Address: addr, Impl: impl, Role: role}}
		out, err := DecodeAddrs(EncodeAddrs(in))
		return err == nil && len(out) == 1 && out[0] == in[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeAddrsForgedCountAllocatesNothing: a 4-byte body claiming
// 2^20 contact addresses fails before the decoder preallocates for
// them (64 MiB of ContactAddress headers at the old bound).
func TestDecodeAddrsForgedCountAllocatesNothing(t *testing.T) {
	body := binary.BigEndian.AppendUint32(nil, wire.MaxCount)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeAddrs(body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged address count decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("failed decode of a 4-byte body allocated %d bytes", got)
	}
}

func TestDeployErrors(t *testing.T) {
	net := worldNet(t)
	if _, err := Deploy(net, DomainSpec{Name: "", Sites: []string{"root-site"}}); err == nil {
		t.Fatal("empty name must fail")
	}
	if _, err := Deploy(net, DomainSpec{Name: "x"}); err == nil {
		t.Fatal("no sites must fail")
	}
	dup := DomainSpec{Name: "root", Sites: []string{"root-site"}, Children: []DomainSpec{
		Leaf("root", "eu-nl-vu"),
	}}
	if _, err := Deploy(net, dup); err == nil {
		t.Fatal("duplicate domain must fail")
	}
}

func TestLookupCostIsWallClockIndependent(t *testing.T) {
	// The virtual cost of a lookup must dwarf its real execution time:
	// the simulator's promise is wide-area shapes at CPU speed.
	_, tree := deployWorld(t)
	eu := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	us := mustResolver(t, tree, "us-ca-ucb", "us/ca")
	_, oid := attachOne(t, eu, ids.Nil, testAddr("eu-nl-vu"), longTTL)
	start := time.Now()
	_, cost, err := us.Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); cost < 10*wall && cost < 50*time.Millisecond {
		t.Fatalf("virtual cost %v suspiciously close to wall clock %v", cost, wall)
	}
}
