// Command gdn-modtool is the moderator tool (paper §4): it creates,
// updates and removes package DSOs, defines their replication
// scenarios, and registers their names with the GNS Naming Authority.
//
//	gdn-modtool -gls :7003 -dns :8001 -na :8010 \
//	    create -name /apps/graphics/gimp -protocol masterslave \
//	    -servers :9001,:9011 -dir ./gimp-1.0
//
//	gdn-modtool ... list -dir /apps
//	gdn-modtool ... add-replica -name /apps/graphics/gimp -server :9021
//	gdn-modtool ... remove -name /apps/graphics/gimp
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gdn/internal/core"
	"gdn/internal/daemon"
	"gdn/internal/modtool"
)

func main() {
	var cf daemon.ClientFlags
	cf.Register(flag.CommandLine)
	na := flag.String("na", "", "Naming Authority address (required)")
	var df daemon.DebugFlags
	df.Register(flag.CommandLine)
	flag.Parse()

	if *na == "" || flag.NArg() < 1 {
		usage()
	}

	rt, err := cf.Runtime()
	if err != nil {
		daemon.Fatal(err)
	}
	defer rt.Close()
	tool, err := modtool.New(modtool.Config{
		Site:            cf.Site,
		Net:             daemon.Net,
		Runtime:         rt,
		NamingAuthority: *na,
	})
	if err != nil {
		daemon.Fatal(err)
	}
	defer tool.Close()
	df.Serve(daemon.Logf("gdn-modtool"))

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "create":
		runCreate(tool, args)
	case "remove":
		runRemove(tool, args)
	case "add-replica":
		runAddReplica(tool, args)
	case "list":
		runList(tool, args)
	case "search":
		runSearch(tool, args)
	case "scenario":
		runScenario(tool, args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gdn-modtool [flags] <create|remove|add-replica|list|search|scenario> [args]
run "gdn-modtool -h" for connection flags`)
	os.Exit(2)
}

func runCreate(tool *modtool.Tool, args []string) {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	name := fs.String("name", "", "package object name, e.g. /apps/graphics/gimp")
	protocol := fs.String("protocol", "masterslave", "replication protocol")
	servers := fs.String("servers", "", "comma-separated GOS command addresses")
	dir := fs.String("dir", "", "directory whose files become the package content")
	desc := fs.String("description", "", "package description")
	fs.Parse(args)
	if *name == "" || *servers == "" || *dir == "" {
		fs.Usage()
		os.Exit(2)
	}

	files, err := loadDir(*dir)
	if err != nil {
		daemon.Fatal(err)
	}
	meta := map[string]string{}
	if *desc != "" {
		meta["description"] = *desc
	}
	oid, cost, err := tool.CreatePackage(*name, core.Scenario{
		Protocol: *protocol,
		Servers:  daemon.SplitList(*servers),
	}, modtool.Package{Files: files, Meta: meta})
	if err != nil {
		daemon.Fatal(err)
	}
	fmt.Printf("created %s\n  oid: %s\n  files: %d\n  network cost: %v\n", *name, oid, len(files), cost)
}

// loadDir reads every regular file under dir, keyed by relative path.
func loadDir(dir string) (map[string][]byte, error) {
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(rel)] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no files under %s", dir)
	}
	return files, nil
}

func runRemove(tool *modtool.Tool, args []string) {
	fs := flag.NewFlagSet("remove", flag.ExitOnError)
	name := fs.String("name", "", "package object name")
	fs.Parse(args)
	if *name == "" {
		fs.Usage()
		os.Exit(2)
	}
	if _, err := tool.RemovePackage(*name); err != nil {
		daemon.Fatal(err)
	}
	fmt.Printf("removed %s\n", *name)
}

func runAddReplica(tool *modtool.Tool, args []string) {
	fs := flag.NewFlagSet("add-replica", flag.ExitOnError)
	name := fs.String("name", "", "package object name")
	server := fs.String("server", "", "GOS command address to add")
	fs.Parse(args)
	if *name == "" || *server == "" {
		fs.Usage()
		os.Exit(2)
	}
	if _, err := tool.AddReplica(*name, *server); err != nil {
		daemon.Fatal(err)
	}
	fmt.Printf("added replica of %s at %s\n", *name, *server)
}

func runList(tool *modtool.Tool, args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	dir := fs.String("dir", "/", "directory to list")
	fs.Parse(args)
	names, err := tool.List(*dir)
	if err != nil {
		daemon.Fatal(err)
	}
	for _, n := range names {
		fmt.Println(n)
	}
}

func runSearch(tool *modtool.Tool, args []string) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	dir := fs.String("dir", "/", "directory to search under")
	query := fs.String("q", "", "query matched against names and metadata")
	fs.Parse(args)
	if *query == "" {
		fs.Usage()
		os.Exit(2)
	}
	hits, err := tool.Search(*dir, *query)
	if err != nil {
		daemon.Fatal(err)
	}
	for _, h := range hits {
		fmt.Printf("%s\t(matched %s)\n", h.Name, h.Matched)
	}
}

func runScenario(tool *modtool.Tool, args []string) {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	name := fs.String("name", "", "package object name")
	fs.Parse(args)
	if *name == "" {
		fs.Usage()
		os.Exit(2)
	}
	sc, err := tool.Scenario(*name)
	if err != nil {
		daemon.Fatal(err)
	}
	fmt.Println(sc)
}
