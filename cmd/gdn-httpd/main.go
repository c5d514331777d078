// Command gdn-httpd runs a GDN-enabled HTTPD on real TCP (paper §4):
// the web server that makes GDN packages reachable from standard
// browsers at /pkg/<name> URLs. With -cache it becomes the caching
// flavour — the GDN-enabled proxy server users run on their own
// machines, whose local representatives act as replicas.
//
//	gdn-httpd -listen :8080 -gls :7003 -dns :8001
//	gdn-httpd -listen :3128 -gls :7003 -dns :8001 -cache -cache-obj-addr :9100
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"gdn/internal/core"
	"gdn/internal/daemon"
	"gdn/internal/httpd"
)

func main() {
	var cf daemon.ClientFlags
	cf.Register(flag.CommandLine)
	var (
		listen     = flag.String("listen", ":8080", "HTTP listen address")
		cache      = flag.Bool("cache", false, "install cache replicas during binding (proxy flavour)")
		cacheObj   = flag.String("cache-obj-addr", "", "replica-traffic address for hosted caches (required with -cache)")
		cacheTTL   = flag.String("cache-ttl", "30s", "cache TTL")
		cacheMode  = flag.String("cache-mode", "ttl", "cache coherence: ttl or invalidate")
		register   = flag.Bool("register-caches", false, "register caches in the location service")
		cacheBytes = flag.Int64("cache-bytes", 0, "cache capacity in bytes (0 = default 256 MiB)")
		stateDir   = flag.String("statedir", "", "disk directory for the proxy cache; survives restarts (\"\" = in-memory)")
	)
	var df daemon.DebugFlags
	df.Register(flag.CommandLine)
	flag.Parse()

	rt, err := cf.Runtime()
	if err != nil {
		daemon.Fatal(err)
	}
	defer rt.Close()
	if rt.Names() == nil {
		daemon.Fatal(fmt.Errorf("gdn-httpd: -dns is required (names resolve through the GNS)"))
	}

	var disp *core.Dispatcher
	if *cache {
		if *cacheObj == "" {
			flag.Usage()
			os.Exit(2)
		}
		disp, err = core.NewDispatcher(daemon.Net, cf.Site, *cacheObj, nil, daemon.Logf("gdn-httpd/disp"))
		if err != nil {
			daemon.Fatal(err)
		}
	}

	h, err := httpd.New(httpd.Config{
		Runtime:        rt,
		CacheObjects:   *cache,
		Disp:           disp,
		CacheParams:    map[string]string{"ttl": *cacheTTL, "mode": *cacheMode},
		RegisterCaches: *register,
		CacheBytes:     *cacheBytes,
		StateDir:       *stateDir,
		Logf:           daemon.Logf("gdn-httpd"),
	})
	if err != nil {
		daemon.Fatal(err)
	}
	defer h.Close()

	fmt.Printf("gdn-httpd: serving on %s (cache=%v)\n", *listen, *cache)
	if dbg := df.Serve(daemon.Logf("gdn-httpd")); dbg != "" {
		fmt.Printf("gdn-httpd: debug endpoint on http://%s/debug/gdn/metrics\n", dbg)
	}
	if err := http.ListenAndServe(*listen, h); err != nil {
		daemon.Fatal(err)
	}
}
