package experiments

import (
	"fmt"
	"time"

	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/netsim"
	"gdn/internal/rpc"
)

// E3Config tunes the root-partitioning experiment.
type E3Config struct {
	// Objects registered (default 400).
	Objects int
	// LookupsPerObject from the remote region (default 2).
	LookupsPerObject int
	// SubnodeCounts to sweep (default 1, 2, 4, 8, 16).
	SubnodeCounts []int
}

// E3RootPartitioning reproduces the §3.5 scalability fix: "partition a
// directory node into one or more directory subnodes", each owning a
// hash slice of the identifier space. Objects live in one region;
// lookups come from the other region so every one of them climbs
// through the root. The table reports how the root's load spreads as
// the subnode count grows — the maximum per-subnode load is the
// bottleneck the paper is eliminating.
func E3RootPartitioning(cfg E3Config) *Table {
	if cfg.Objects <= 0 {
		cfg.Objects = 400
	}
	if cfg.LookupsPerObject <= 0 {
		cfg.LookupsPerObject = 2
	}
	if len(cfg.SubnodeCounts) == 0 {
		cfg.SubnodeCounts = []int{1, 2, 4, 8, 16}
	}

	t := &Table{
		ID:      "E3",
		Title:   "GLS root-node partitioning into subnodes (§3.5)",
		Columns: []string{"subnodes", "root ops total", "max/subnode", "min/subnode", "vs unpartitioned max"},
		Notes:   fmt.Sprintf("%d objects in eu, %d lookups each from us; every lookup and pointer install crosses the root", cfg.Objects, cfg.LookupsPerObject),
	}

	var baselineMax int64
	for _, n := range cfg.SubnodeCounts {
		total, maxLoad, minLoad := runE3(cfg, n)
		if n == 1 {
			baselineMax = maxLoad
		}
		ratio := "1.00"
		if baselineMax > 0 {
			ratio = fmt.Sprintf("%.2f", float64(maxLoad)/float64(baselineMax))
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(total), fmt.Sprint(maxLoad), fmt.Sprint(minLoad), ratio)
	}
	return t
}

// E3OneWayPartition exercises the us-to-root link under asymmetric
// failure, the case a symmetric partition model cannot express: first
// the request direction is cut (us-a -> hub-0, lookups die on the way
// up), then the reply direction (hub-0 -> us-a, lookups die on the way
// back). Lookups must fail in both cut phases and recover after each
// heal — the healed phases tolerate a short settle window because the
// rpc dial-backoff gate deliberately holds a failing peer out for up
// to a second.
func E3OneWayPartition() *Table {
	// Reply-direction cuts surface as call timeouts, so the 30s
	// default deadline would stretch each failed lookup into half a
	// minute. Each Client copies the default into its Timeout field at
	// creation, so lowering the var before the tree is deployed reaches
	// every client without racing in-flight calls.
	savedTimeout := rpc.DefaultTimeout
	rpc.DefaultTimeout = 500 * time.Millisecond
	defer func() { rpc.DefaultTimeout = savedTimeout }()

	net := netsim.New(nil)
	net.AddSite("hub-0", "hub", "core")
	net.AddSite("eu-a", "eu-a", "eu")
	net.AddSite("us-a", "us-a", "us")

	tree, err := gls.Deploy(net, gls.DomainSpec{
		Name: "root", Sites: []string{"hub-0"},
		Children: []gls.DomainSpec{
			{Name: "eu", Sites: []string{"eu-a"}, Children: []gls.DomainSpec{gls.Leaf("eu/a", "eu-a")}},
			{Name: "us", Sites: []string{"us-a"}, Children: []gls.DomainSpec{gls.Leaf("us/a", "us-a")}},
		},
	})
	if err != nil {
		panic(err)
	}
	defer tree.Close()

	owner, sess := registerServer(tree, "eu-a", "eu/a")
	defer owner.Close()
	remote, err := tree.Resolver("us-a", "us/a")
	if err != nil {
		panic(err)
	}
	defer remote.Close()

	const objects = 8
	oids := make([]ids.OID, objects)
	for i := range oids {
		oid, _, err := sess.Attach(ids.Derive(fmt.Sprintf("e3b-object-%d", i)), serverAddr(sess))
		if err != nil {
			panic(err)
		}
		oids[i] = oid
	}

	t := &Table{
		ID:      "E3b",
		Title:   "GLS lookups across one-way partitions of the root link",
		Columns: []string{"phase", "lookups", "ok", "failed"},
		Notes:   "objects in eu, lookups from us; every lookup crosses the us->root link, cut one direction at a time",
	}

	lookups := func() (ok, failed int) {
		for _, oid := range oids {
			if _, _, err := remote.Lookup(oid); err == nil {
				ok++
			} else {
				failed++
			}
		}
		return ok, failed
	}
	settle := func() {
		deadline := time.Now().Add(3 * time.Second)
		for {
			if _, _, err := remote.Lookup(oids[0]); err == nil || time.Now().After(deadline) {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	phases := []struct {
		name     string
		change   func()
		expectOK bool
	}{
		{"healthy", nil, true},
		{"cut us->root (requests lost)", func() { net.PartitionOneWay("us-a", "hub-0") }, false},
		{"healed us->root", func() { net.HealOneWay("us-a", "hub-0") }, true},
		{"cut root->us (replies lost)", func() { net.PartitionOneWay("hub-0", "us-a") }, false},
		{"healed root->us", func() { net.HealOneWay("hub-0", "us-a") }, true},
	}
	for _, p := range phases {
		if p.change != nil {
			p.change()
		}
		if p.expectOK {
			settle()
		}
		ok, failed := lookups()
		if p.expectOK && failed > 0 {
			panic(fmt.Sprintf("E3b phase %q: %d/%d lookups failed on a healthy path", p.name, failed, objects))
		}
		if !p.expectOK && ok > 0 {
			panic(fmt.Sprintf("E3b phase %q: %d/%d lookups succeeded across a cut link", p.name, ok, objects))
		}
		t.AddRow(p.name, fmt.Sprint(objects), fmt.Sprint(ok), fmt.Sprint(failed))
	}
	return t
}

func runE3(cfg E3Config, subnodes int) (total, maxLoad, minLoad int64) {
	net := netsim.New(nil)
	rootSites := make([]string, subnodes)
	for i := range rootSites {
		site := fmt.Sprintf("hub-%d", i)
		net.AddSite(site, "hub", "core")
		rootSites[i] = site
	}
	net.AddSite("eu-a", "eu-a", "eu")
	net.AddSite("us-a", "us-a", "us")

	tree, err := gls.Deploy(net, gls.DomainSpec{
		Name: "root", Sites: rootSites,
		Children: []gls.DomainSpec{
			{Name: "eu", Sites: []string{"eu-a"}, Children: []gls.DomainSpec{gls.Leaf("eu/a", "eu-a")}},
			{Name: "us", Sites: []string{"us-a"}, Children: []gls.DomainSpec{gls.Leaf("us/a", "us-a")}},
		},
	})
	if err != nil {
		panic(err)
	}
	defer tree.Close()

	owner, sess := registerServer(tree, "eu-a", "eu/a")
	defer owner.Close()
	remote, err := tree.Resolver("us-a", "us/a")
	if err != nil {
		panic(err)
	}
	defer remote.Close()

	// Derived, not minted, OIDs: the per-subnode split depends on
	// them, so a table diff between runs or commits shows real changes.
	oids := make([]ids.OID, cfg.Objects)
	for i := range oids {
		oid, _, err := sess.Attach(ids.Derive(fmt.Sprintf("e3-object-%d", i)), serverAddr(sess))
		if err != nil {
			panic(err)
		}
		oids[i] = oid
	}
	for i := 0; i < cfg.LookupsPerObject; i++ {
		for _, oid := range oids {
			if _, _, err := remote.Lookup(oid); err != nil {
				panic(err)
			}
		}
	}

	minLoad = int64(1) << 62
	for _, node := range tree.Nodes("root") {
		load := node.Stats().Total()
		total += load
		if load > maxLoad {
			maxLoad = load
		}
		if load < minLoad {
			minLoad = load
		}
	}
	return total, maxLoad, minLoad
}
