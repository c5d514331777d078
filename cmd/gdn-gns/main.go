// Command gdn-gns runs the name-service side of the GDN on real TCP:
// an authoritative mini-DNS server for the GDN Zone and, optionally,
// the GNS Naming Authority — the sole daemon allowed to send dynamic
// updates to the zone (paper §5, §6.1).
//
// A typical deployment runs one root DNS server, one zone server per
// region, and a single naming authority:
//
//	gdn-gns -dns-addr :8001 -root                      # root, delegating
//	gdn-gns -dns-addr :8002 -zone gdn.cs.vu.nl         # zone server
//	gdn-gns -na-addr :8010 -servers :8002 -zone gdn.cs.vu.nl -state-dir /var/lib/gdn-na
//
// The TSIG secret shared between the authority and the zone servers
// comes from -tsig-secret (both sides must match).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gdn/internal/daemon"
	"gdn/internal/dns"
	"gdn/internal/gns"
)

func main() {
	var (
		dnsAddr  = flag.String("dns-addr", "", "listen address for the DNS server (empty: no DNS server)")
		zoneName = flag.String("zone", "gdn.cs.vu.nl", "GDN Zone name")
		root     = flag.Bool("root", false, "serve the root zone (with -delegate pairs) instead of the GDN Zone")
		delegate = flag.String("delegate", "", "comma-separated ns-name=addr delegations for the root zone")
		naAddr   = flag.String("na-addr", "", "listen address for the Naming Authority (empty: no authority)")
		servers  = flag.String("servers", "", "comma-separated zone-server addresses the authority updates")
		tsig     = flag.String("tsig-secret", "gdn-dev-secret", "TSIG key secret shared with the zone servers")
		batch    = flag.Int("batch", 1, "naming-authority update batch size")
		stateDir = flag.String("state-dir", "", "directory of the authority's durable name table (empty: in memory only)")
	)
	var df daemon.DebugFlags
	df.Register(flag.CommandLine)
	flag.Parse()

	if *dnsAddr == "" && *naAddr == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *dnsAddr != "" {
		srv, err := dns.ServeDNS(daemon.Net, *dnsAddr, daemon.Logf("gdn-gns/dns"))
		if err != nil {
			daemon.Fatal(err)
		}
		defer srv.Close()
		if *root {
			zone := dns.NewZone("")
			for _, pair := range daemon.SplitList(*delegate) {
				ns, addr, ok := strings.Cut(pair, "=")
				if !ok {
					daemon.Fatal(fmt.Errorf("bad -delegate entry %q (want ns-name=addr)", pair))
				}
				if err := zone.Add(dns.RR{Name: *zoneName, Type: dns.TypeNS, TTL: 3600, Data: ns}); err != nil {
					daemon.Fatal(err)
				}
				if err := zone.Add(dns.RR{Name: ns, Type: dns.TypeADDR, TTL: 3600, Data: addr}); err != nil {
					daemon.Fatal(err)
				}
			}
			srv.AddZone(zone)
			fmt.Printf("gdn-gns: root DNS server on %s\n", *dnsAddr)
		} else {
			zone := dns.NewZone(*zoneName)
			zone.AllowUpdate("na-key", []byte(*tsig))
			srv.AddZone(zone)
			fmt.Printf("gdn-gns: authoritative server for %q on %s\n", *zoneName, *dnsAddr)
		}
	}

	if *naAddr != "" {
		authority, err := gns.StartAuthority(daemon.Net, gns.AuthorityConfig{
			Zone:       *zoneName,
			Site:       "local",
			Addr:       *naAddr,
			Servers:    daemon.SplitList(*servers),
			TSIGKey:    "na-key",
			TSIGSecret: []byte(*tsig),
			BatchSize:  *batch,
			StateDir:   *stateDir,
			Logf:       daemon.Logf("gdn-gns/na"),
		})
		if err != nil {
			daemon.Fatal(err)
		}
		defer authority.Close()
		fmt.Printf("gdn-gns: naming authority for %q on %s (batch %d, %d names)\n", *zoneName, *naAddr, *batch, len(authority.Names()))
	}
	if dbg := df.Serve(daemon.Logf("gdn-gns")); dbg != "" {
		fmt.Printf("gdn-gns: debug endpoint on http://%s/debug/gdn/metrics\n", dbg)
	}

	sig := daemon.WaitForSignal()
	fmt.Printf("gdn-gns: %v, shutting down\n", sig)
}
