package experiments

import (
	"fmt"
	"time"

	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/netsim"
)

// e2World builds the three-level location-service world used by the
// GLS experiments: a root, two regions, two leaf domains per region.
func e2World() (*netsim.Network, *gls.Tree) {
	net := netsim.New(nil)
	net.AddSite("hub", "hub", "core")
	net.AddSite("eu-a", "eu-a", "eu")
	net.AddSite("eu-b", "eu-b", "eu")
	net.AddSite("us-a", "us-a", "us")
	net.AddSite("us-b", "us-b", "us")

	tree, err := gls.Deploy(net, gls.DomainSpec{
		Name: "root", Sites: []string{"hub"},
		Children: []gls.DomainSpec{
			{Name: "eu", Sites: []string{"eu-a"}, Children: []gls.DomainSpec{
				gls.Leaf("eu/a", "eu-a"),
				gls.Leaf("eu/b", "eu-b"),
			}},
			{Name: "us", Sites: []string{"us-a"}, Children: []gls.DomainSpec{
				gls.Leaf("us/a", "us-a"),
				gls.Leaf("us/b", "us-b"),
			}},
		},
	})
	if err != nil {
		panic(err)
	}
	return net, tree
}

// registerServer opens a registration session for a server at site
// through domain's directory node: its leaf, or an intermediate node
// when addresses are stored there (§3.5). The TTL outlasts any
// experiment, none of which renews it. Closing the resolver releases
// the session's connections.
func registerServer(tree *gls.Tree, site, domain string) (*gls.Resolver, *gls.ServerSession) {
	res, err := tree.Resolver(site, domain)
	if err != nil {
		panic(err)
	}
	sess, _, err := res.OpenSession(site+":gos-obj", time.Hour)
	if err != nil {
		panic(err)
	}
	return res, sess
}

// serverAddr is the contact address a registerServer session attaches.
func serverAddr(sess *gls.ServerSession) gls.ContactAddress {
	return gls.ContactAddress{Protocol: "clientserver", Address: sess.Addr(), Impl: "package/1", Role: "server"}
}

// E2LookupDistance reproduces the paper's central GLS property: "the
// cost of a look up increases proportional to the distance between
// client and nearest representative" (§3.5). One object is registered
// in leaf eu/a; clients at increasing distances look it up.
func E2LookupDistance() *Table {
	_, tree := e2World()
	defer tree.Close()

	owner, sess := registerServer(tree, "eu-a", "eu/a")
	defer owner.Close()
	oid, _, err := sess.Attach(ids.Nil, serverAddr(sess))
	if err != nil {
		panic(err)
	}

	t := &Table{
		ID:      "E2",
		Title:   "GLS lookup cost vs client-replica distance (Fig 2, §3.5)",
		Columns: []string{"client", "distance", "hops", "virtual ms"},
		Notes:   "one replica registered in leaf eu/a; lookups climb until an entry is found, then descend",
	}

	cases := []struct {
		site, leaf, distance, hops string
	}{
		{"eu-a", "eu/a", "same leaf", "leaf"},
		{"eu-b", "eu/b", "same region", "leaf→eu→eu/a"},
		{"us-a", "us/a", "other region", "leaf→us→root→eu→eu/a"},
	}
	for _, c := range cases {
		res, err := tree.Resolver(c.site, c.leaf)
		if err != nil {
			panic(err)
		}
		_, cost, err := res.Lookup(oid)
		res.Close()
		if err != nil {
			panic(err)
		}
		t.AddRow(c.site, c.distance, c.hops, ms(cost))
	}
	return t
}

// E2MobileAblation reproduces the §3.5 remark that "storing the
// addresses at intermediate nodes may, in the case of highly mobile
// objects, lead to considerably more efficient look-up operations": a
// mobile object relocates between the two European leaves repeatedly;
// we compare the per-move update cost and post-move lookup cost when
// its address is stored in the leaves versus at the "eu" node.
func E2MobileAblation() *Table {
	_, tree := e2World()
	defer tree.Close()

	client, err := tree.Resolver("eu-a", "eu/a")
	if err != nil {
		panic(err)
	}
	defer client.Close()

	const moves = 8
	t := &Table{
		ID:      "E2b",
		Title:   "mobile object: leaf storage vs intermediate-node storage (§3.5)",
		Columns: []string{"placement", "moves", "total move ms", "lookup-after-move ms"},
		Notes:   "object relocates between eu/a and eu/b; intermediate placement keeps updates off the pointer chain",
	}

	// The servers at eu-a and eu-b register through sessions at the
	// nodes that store the address. A move attaches the new address
	// first, then detaches the old one, so the shared part of the
	// pointer chain never tears down. With leaf placement the two leaf
	// nodes and the region node still see pointer churn; with
	// intermediate placement a move is an insert and a delete at the
	// "eu" node with no pointer churn at all.
	place := func(placement, domA, domB string, oid ids.OID) {
		resA, from := registerServer(tree, "eu-a", domA)
		defer resA.Close()
		resB, to := registerServer(tree, "eu-b", domB)
		defer resB.Close()
		if _, _, err := from.Attach(oid, serverAddr(from)); err != nil {
			panic(err)
		}
		var moveCost, lookupCost time.Duration
		for i := 0; i < moves; i++ {
			_, d1, err := to.Attach(oid, serverAddr(to))
			if err != nil {
				panic(err)
			}
			d2, err := from.Detach(oid)
			if err != nil {
				panic(err)
			}
			moveCost += d1 + d2
			from, to = to, from
			_, lc, err := client.Lookup(oid)
			if err != nil {
				panic(err)
			}
			lookupCost += lc
		}
		t.AddRow(placement, fmt.Sprint(moves),
			fmt.Sprintf("%.2f", float64(moveCost)/1e6),
			fmt.Sprintf("%.2f", float64(lookupCost)/float64(moves)/1e6))
	}
	place("leaf nodes", "eu/a", "eu/b", ids.Derive("mobile-leaf"))
	place("intermediate (eu) node", "eu", "eu", ids.Derive("mobile-mid"))
	return t
}
