// Command gdn-experiments regenerates every table of the evaluation:
// the reproduction of each quantitative claim in "The Globe
// Distribution Network" (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	gdn-experiments            # run everything
//	gdn-experiments E2 E5 E8   # run selected experiments
//	gdn-experiments -list      # list experiment identifiers
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gdn/internal/experiments"
	"gdn/internal/obs"
)

// runners maps experiment identifiers to their drivers with default
// configurations.
var runners = []struct {
	id   string
	what string
	run  func() []*experiments.Table
}{
	{"E1", "subobject composition overhead", func() []*experiments.Table {
		return []*experiments.Table{experiments.E1Overhead(experiments.E1Config{})}
	}},
	{"E2", "GLS lookup distance + mobile-object ablation", func() []*experiments.Table {
		return []*experiments.Table{experiments.E2LookupDistance(), experiments.E2MobileAblation()}
	}},
	{"E3", "GLS root partitioning + one-way partitions", func() []*experiments.Table {
		return []*experiments.Table{experiments.E3RootPartitioning(experiments.E3Config{}), experiments.E3OneWayPartition()}
	}},
	{"E4", "differentiated replication vs global policies", func() []*experiments.Table {
		return []*experiments.Table{experiments.E4Differentiated(experiments.E4Config{})}
	}},
	{"E5", "end-to-end downloads + chunk ablation", func() []*experiments.Table {
		return []*experiments.Table{experiments.E5Download(experiments.E5Config{}), experiments.E5ChunkAblation()}
	}},
	{"E6", "security channel cost", func() []*experiments.Table {
		return []*experiments.Table{experiments.E6ChannelCost(experiments.E6Config{})}
	}},
	{"E7", "GNS caching and batching", func() []*experiments.Table {
		return []*experiments.Table{experiments.E7NameService(experiments.E7Config{})}
	}},
	{"E8", "replication protocols under read/write mixes", func() []*experiments.Table {
		return []*experiments.Table{experiments.E8Protocols(experiments.E8Config{})}
	}},
	{"E9", "object-server checkpoint and recovery", func() []*experiments.Table {
		return []*experiments.Table{experiments.E9Recovery(experiments.E9Config{})}
	}},
	{"E10", "security admission", func() []*experiments.Table {
		return []*experiments.Table{experiments.E10Admission()}
	}},
	{"E11", "replica failover under a fleet of downloads", func() []*experiments.Table {
		tab := experiments.E11Failover(experiments.E11Config{})
		// Every phase must complete every download bit-exact with no
		// 5xx; a red CI run names the phase.
		for _, row := range tab.Rows {
			if row[2] != row[1] || row[3] != "0" || row[4] != row[1] {
				tab.Render(os.Stdout)
				panic(fmt.Sprintf("E11: phase %q: %s of %s downloads ok, %s HTTP 5xx, %s bit-exact", row[0], row[2], row[1], row[3], row[4]))
			}
		}
		return []*experiments.Table{tab}
	}},
	{"E12", "chaos soak: seeded fault schedules vs the invariants", func() []*experiments.Table {
		return []*experiments.Table{experiments.E12ChaosSoak(experiments.E12Config{Seeds: e12Seeds})}
	}},
}

// e12Seeds carries the -seeds flag to the E12 runner; empty keeps the
// experiment's default seed sweep.
var e12Seeds []int64

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	seeds := flag.String("seeds", "", "comma-separated chaos seeds for E12 (default 1,2,3)")
	metricsDump := flag.Bool("metrics-dump", false, "print the final metrics-registry snapshot (Prometheus text) after the experiments")
	flag.Parse()

	if *seeds != "" {
		for _, s := range strings.Split(*seeds, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gdn-experiments: bad -seeds value %q: %v\n", s, err)
				os.Exit(2)
			}
			e12Seeds = append(e12Seeds, v)
		}
	}

	if *list {
		for _, r := range runners {
			fmt.Printf("%-4s %s\n", r.id, r.what)
		}
		return
	}

	selected := make(map[string]bool)
	for _, arg := range flag.Args() {
		selected[strings.ToUpper(arg)] = true
	}

	ran := 0
	for _, r := range runners {
		if len(selected) > 0 && !selected[r.id] {
			continue
		}
		fmt.Printf("== %s: %s ==\n", r.id, r.what)
		for _, tab := range r.run() {
			tab.Render(os.Stdout)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "gdn-experiments: nothing matched %v (try -list)\n", flag.Args())
		os.Exit(1)
	}
	if *metricsDump {
		fmt.Println("== metrics registry ==")
		if err := obs.WritePrometheus(os.Stdout, obs.Default); err != nil {
			fmt.Fprintf(os.Stderr, "gdn-experiments: metrics dump: %v\n", err)
			os.Exit(1)
		}
	}
}
