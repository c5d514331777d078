// Command gdn-gls runs one Globe Location Service directory subnode on
// real TCP (paper §3.5). A deployment starts one process per subnode:
// the root first, then region nodes pointing at it, then leaf nodes —
// mirroring the domain hierarchy of Figure 2.
//
// Example three-node tree on one machine:
//
//	gdn-gls -domain root -addr :7001 -self :7001
//	gdn-gls -domain eu   -addr :7002 -self :7002 -parent :7001
//	gdn-gls -domain eu/nl -addr :7003 -self :7003 -parent :7002
//
// Persistence (§7) is -state-dir: the node keeps its records and
// sessions (with their drain flags) in one durable table there
// (state.log) and writes the ones that changed once a second. Without -state-dir the
// node keeps its state in memory only; servers holding registration
// sessions re-attach their entries to a restarted node on their next
// heartbeat.
package main

import (
	"flag"
	"fmt"
	"os"

	"gdn/internal/daemon"
	"gdn/internal/gls"
)

func main() {
	var (
		domain   = flag.String("domain", "", "domain this directory node serves (required)")
		addr     = flag.String("addr", "", "listen address host:port (required)")
		self     = flag.String("self", "", "comma-separated addresses of all subnodes of this domain (default: -addr)")
		parent   = flag.String("parent", "", "comma-separated parent node addresses (empty for the root)")
		seed     = flag.Int64("seed", 1, "seed for random forwarding-pointer choice")
		stateDir = flag.String("state-dir", "", "directory for the node's durable state table")
	)
	var df daemon.DebugFlags
	df.Register(flag.CommandLine)
	flag.Parse()
	if *domain == "" || *addr == "" {
		flag.Usage()
		os.Exit(2)
	}

	selfAddrs := daemon.SplitList(*self)
	if len(selfAddrs) == 0 {
		selfAddrs = []string{*addr}
	}
	node, err := gls.Start(daemon.Net, gls.Config{
		Domain:   *domain,
		Site:     "local",
		Addr:     *addr,
		Self:     gls.Ref{Addrs: selfAddrs},
		Parent:   gls.Ref{Addrs: daemon.SplitList(*parent)},
		Seed:     *seed,
		Logf:     daemon.Logf("gdn-gls"),
		StateDir: *stateDir,
	})
	if err != nil {
		daemon.Fatal(err)
	}
	if *stateDir != "" {
		fmt.Printf("gdn-gls: keeping state in %s\n", *stateDir)
	}
	fmt.Printf("gdn-gls: directory node for %q serving on %s\n", *domain, *addr)
	if dbg := df.Serve(daemon.Logf("gdn-gls")); dbg != "" {
		fmt.Printf("gdn-gls: debug endpoint on http://%s/debug/gdn/metrics\n", dbg)
	}

	sig := daemon.WaitForSignal()
	fmt.Printf("gdn-gls: %v, shutting down\n", sig)
	node.Close()
}
