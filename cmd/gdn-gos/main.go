// Command gdn-gos runs a Globe Object Server on real TCP (paper §4):
// the application-independent daemon hosting replicas of distributed
// shared objects, commanded by moderator tools, registering its
// replicas in the location service and checkpointing them to disk.
//
//	gdn-gos -cmd-addr :9001 -obj-addr :9002 -gls :7003 -state /var/lib/gdn
package main

import (
	"flag"
	"fmt"
	"os"

	"gdn/internal/daemon"
	"gdn/internal/gos"
)

func main() {
	var cf daemon.ClientFlags
	cf.Register(flag.CommandLine)
	var (
		cmdAddr  = flag.String("cmd-addr", "", "listen address for moderator commands (required)")
		objAddr  = flag.String("obj-addr", "", "listen address for replica traffic (required)")
		stateDir = flag.String("state", "", "checkpoint directory (empty disables persistence)")
	)
	var df daemon.DebugFlags
	df.Register(flag.CommandLine)
	flag.Parse()
	if *cmdAddr == "" || *objAddr == "" {
		flag.Usage()
		os.Exit(2)
	}

	rt, err := cf.Runtime()
	if err != nil {
		daemon.Fatal(err)
	}
	defer rt.Close()
	srv, err := gos.Start(daemon.Net, gos.Config{
		Site:     cf.Site,
		CmdAddr:  *cmdAddr,
		ObjAddr:  *objAddr,
		Runtime:  rt,
		StateDir: *stateDir,
		Logf:     daemon.Logf("gdn-gos"),
	})
	if err != nil {
		daemon.Fatal(err)
	}
	fmt.Printf("gdn-gos: commands on %s, replica traffic on %s, %d replicas recovered\n",
		*cmdAddr, *objAddr, srv.Hosted())
	if dbg := df.Serve(daemon.Logf("gdn-gos")); dbg != "" {
		fmt.Printf("gdn-gos: debug endpoint on http://%s/debug/gdn/metrics\n", dbg)
	}

	sig := daemon.WaitForSignal()
	fmt.Printf("gdn-gos: %v, checkpointing and shutting down\n", sig)
	if err := srv.Shutdown(); err != nil {
		daemon.Fatal(err)
	}
}
