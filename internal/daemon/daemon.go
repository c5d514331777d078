// Package daemon carries the assembly code shared by the cmd/ daemons:
// building a Globe runtime over real TCP from command-line flags, and
// waiting for termination signals. The daemons mirror the processes of
// the paper's Figure 3 — object servers, GDN HTTPDs, location and name
// service nodes, moderator tools — each as one binary on real sockets,
// while the simulated-network World in package gdn serves tests and
// experiments.
package daemon

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"gdn/internal/core"
	"gdn/internal/dns"
	"gdn/internal/gls"
	"gdn/internal/gns"
	"gdn/internal/pkgobj"
	"gdn/internal/repl"
	"gdn/internal/transport"
)

// Net is the transport every daemon runs on: real TCP with
// length-prefixed frames.
var Net transport.Network = transport.TCP{}

// ClientFlags configures access to the Globe services from flags.
type ClientFlags struct {
	// Site names this process's site (used for logs; TCP routing
	// ignores it).
	Site string
	// GLSLeaf is the comma-separated subnode address list of the leaf
	// directory node this process attaches to.
	GLSLeaf string
	// DNSRoots is the comma-separated root name-server address list.
	DNSRoots string
	// Zone is the GDN Zone.
	Zone string
}

// Register installs the flags on fs.
func (cf *ClientFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&cf.Site, "site", "local", "site name of this process")
	fs.StringVar(&cf.GLSLeaf, "gls", "", "comma-separated addresses of the leaf GLS directory node")
	fs.StringVar(&cf.DNSRoots, "dns", "", "comma-separated root DNS server addresses")
	fs.StringVar(&cf.Zone, "zone", "gdn.cs.vu.nl", "GDN Zone name")
}

// SplitList parses a comma-separated address list.
func SplitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Registry returns an implementation repository with the package
// semantics and every replication protocol installed.
func Registry() *core.Registry {
	reg := core.NewRegistry()
	pkgobj.Register(reg)
	repl.RegisterAll(reg)
	return reg
}

// Runtime assembles a Globe runtime from the flags. The name service
// is attached only when DNS roots are given. The caller owns the
// runtime's shared connections and closes them with Runtime.Close.
func (cf *ClientFlags) Runtime() (*core.Runtime, error) {
	leaf := SplitList(cf.GLSLeaf)
	if len(leaf) == 0 {
		return nil, fmt.Errorf("daemon: -gls is required")
	}
	resolver := gls.NewResolver(Net, cf.Site, gls.Ref{Addrs: leaf})

	var names *gns.NameService
	if roots := SplitList(cf.DNSRoots); len(roots) > 0 {
		names = gns.NewNameService(dns.NewResolver(Net, cf.Site, roots), cf.Zone)
	}
	return core.NewRuntime(core.RuntimeConfig{
		Site:     cf.Site,
		Net:      Net,
		Resolver: resolver,
		Names:    names,
		Registry: Registry(),
		Logf:     Logf("runtime"),
	}), nil
}

// Logf returns a prefixed stderr logger.
func Logf(prefix string) func(string, ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, prefix+": "+format+"\n", args...)
	}
}

// WaitForSignal blocks until SIGINT or SIGTERM.
func WaitForSignal() os.Signal {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	return <-ch
}

// Fatal prints an error and exits.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, "fatal:", err)
	os.Exit(1)
}
