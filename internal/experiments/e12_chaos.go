package experiments

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gdn"
	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/netsim"
	"gdn/internal/obs"
	"gdn/internal/rpc"
	"gdn/internal/testutil"
)

// E12Config tunes the chaos soak.
type E12Config struct {
	// Seeds drives one full pass of every schedule family per seed
	// (default 1, 2, 3). Each (family, seed) pair runs twice and the
	// two runs must replay identically.
	Seeds []int64
	// Families restricts the schedule families (default all three:
	// "loss-jitter", "oneway-partition", "crash-restart").
	Families []string
	// Downloads per fault-injection phase. Default 6.
	Downloads int
	// FileSize is the package payload in bytes. Default 4 MiB — past
	// the stream credit window, so the crash family genuinely lands
	// mid-transfer.
	FileSize int
	// LeaseTTL is the object servers' registration-session TTL.
	// Default 2.5s: small enough that ageout and re-registration are
	// observable in wall-clock seconds, large enough to clear the
	// rpc dial-backoff cooldown (1s) after a heal.
	LeaseTTL time.Duration
}

// e12Families is the default schedule-family sweep, one per failure
// mode the chaos plane models.
var e12Families = []string{"loss-jitter", "oneway-partition", "crash-restart"}

// E12ChaosSoak is the chaos soak: seeded fault schedules against a
// three-region world, each run twice to prove the chaos plane replays
// bit-identically, with the robustness invariants asserted on every
// run:
//
//   - client-visible failures stay inside the error budget (at least
//     half the downloads attempted under injection succeed, and a
//     clean download succeeds promptly once the schedule heals);
//   - no download ever returns corrupt bytes — a transfer either
//     fails visibly or is bit-exact;
//   - after a heal or restart, every replica is re-registered in the
//     location service within one lease TTL;
//   - the world tears down without leaking goroutines;
//   - no RPC handler panics (registry counter delta), and under
//     loss-jitter the family really injects loss and every
//     wedged-connection condemnation is accounted for by a lost frame —
//     the rpc layer never condemns a connection the chaos plane left
//     alone.
//
// An invariant violation panics with the schedule family and seed, so
// a failing CI run names the exact schedule to replay.
func E12ChaosSoak(cfg E12Config) *Table {
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{1, 2, 3}
	}
	if len(cfg.Families) == 0 {
		cfg.Families = e12Families
	}
	if cfg.Downloads <= 0 {
		cfg.Downloads = 6
	}
	if cfg.FileSize <= 0 {
		cfg.FileSize = 4 << 20
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2500 * time.Millisecond
	}

	t := &Table{
		ID:    "E12",
		Title: "chaos soak: seeded fault schedules vs the robustness invariants",
		Columns: []string{
			"schedule", "seed", "digest", "downloads", "ok", "corrupt", "re-reg ms", "leaked", "replay",
		},
		Notes: fmt.Sprintf("3 regions, 2 masterslave replicas in eu, %d KiB payload, lease TTL %s, rpc deadline 1s; every schedule is run twice and must replay identically",
			cfg.FileSize/1024, cfg.LeaseTTL),
	}

	for _, family := range cfg.Families {
		for _, seed := range cfg.Seeds {
			first := runE12(cfg, family, seed)
			second := runE12(cfg, family, seed)
			if first.fingerprint() != second.fingerprint() {
				panicE12(family, seed, fmt.Sprintf("replay diverged:\n run 1: %s\n run 2: %s",
					first.fingerprint(), second.fingerprint()))
			}
			reReg := "-"
			if first.reRegMS >= 0 {
				reReg = fmt.Sprintf("%.0f", first.reRegMS)
			}
			t.AddRow(family, fmt.Sprint(seed), first.digest,
				fmt.Sprint(first.attempted), fmt.Sprint(first.ok), fmt.Sprint(first.corrupt),
				reReg, fmt.Sprint(first.leaked), "identical")
		}
	}
	return t
}

// e12Result is one run's outcome. The fingerprint covers only
// quantities the seed discipline promises to replay: the schedule
// digest and fault timeline, plus the invariant counters. Per-download
// success counts are excluded — frame-level fault draws depend on
// connection establishment order (see the netsim package comment), so
// ok may legitimately differ between replays while corruption,
// re-registration, and leaks may not.
type e12Result struct {
	digest    string
	timeline  []string
	attempted int
	ok        int
	corrupt   int
	reRegMS   float64 // milliseconds from heal to full re-registration; -1 when the family has no heal
	leaked    int
}

func (r e12Result) fingerprint() string {
	return fmt.Sprintf("%s|%s|attempted=%d|corrupt=%d|rereg=%t|leaked=%d",
		r.digest, strings.Join(r.timeline, ";"), r.attempted, r.corrupt, r.reRegMS >= 0, r.leaked)
}

func panicE12(family string, seed int64, msg string) {
	panic(fmt.Sprintf("E12 invariant violated (schedule %q, seed %d — rerun with this seed to replay): %s",
		family, seed, msg))
}

// e12Schedule builds the family's chaos program. The heal step's
// nominal offset is late on purpose: the workload phases run at their
// own wall-clock pace and the driver fires the heal explicitly with
// Runner.Finish once the pre-heal assertions are in.
func e12Schedule(family string, seed int64) netsim.Schedule {
	const healAt = 30 * time.Second
	switch family {
	case "loss-jitter":
		return netsim.Schedule{Name: family, Seed: seed, Steps: []netsim.Step{
			{At: 0, Action: netsim.Action{Kind: netsim.ActSetFaults, Class: netsim.WideArea, Faults: netsim.LinkFaults{
				Loss: 0.05, Jitter: 2 * time.Millisecond,
			}}},
			{At: healAt, Action: netsim.Action{Kind: netsim.ActClearFaults}},
		}}
	case "oneway-partition":
		// Cut eu-2 -> eu-1 only: renewals from the eu-2 object server
		// never reach the region directory node at eu-1, while traffic
		// toward eu-2 still flows — the asymmetric case a symmetric
		// partition model cannot express.
		return netsim.Schedule{Name: family, Seed: seed, Steps: []netsim.Step{
			{At: 0, Action: netsim.Action{Kind: netsim.ActPartitionOneWay, A: "eu-2", B: "eu-1"}},
			{At: healAt, Action: netsim.Action{Kind: netsim.ActHealOneWay, A: "eu-2", B: "eu-1"}},
		}}
	case "crash-restart":
		return netsim.Schedule{Name: family, Seed: seed, Steps: []netsim.Step{
			{At: 0, Action: netsim.Action{Kind: netsim.ActCrash, A: "eu-2"}},
			{At: healAt, Action: netsim.Action{Kind: netsim.ActRestart, A: "eu-2"}},
		}}
	}
	panic(fmt.Sprintf("e12: unknown schedule family %q", family))
}

// runE12 deploys a fresh three-region world, drives one schedule
// against it, checks the invariants, and tears everything down.
func runE12(cfg E12Config, family string, seed int64) e12Result {
	// The soak polls in wall-clock seconds, so the 30s default RPC
	// deadline would hide every hang. Each Client copies the default
	// into its Timeout field at creation, so lowering the var before the
	// world is built reaches every client without racing in-flight calls.
	savedTimeout := rpc.DefaultTimeout
	rpc.DefaultTimeout = time.Second
	defer func() { rpc.DefaultTimeout = savedTimeout }()

	g0 := runtime.NumGoroutine()
	panics0 := obs.Default.CounterValue("gdn_rpc_server_panics_total")
	wedged0 := obs.Default.CounterValue(`gdn_rpc_conns_condemned_total{cause="wedged"}`)

	w := newWorld(gdn.Topology{
		Regions: map[string][]string{
			"eu": {"eu-1", "eu-2"},
			"na": {"na-1", "na-2"},
			"ap": {"ap-1", "ap-2"},
		},
		SharedRegionLeaves: true,
		GOSLeaseTTL:        cfg.LeaseTTL,
	})

	content := bytes.Repeat([]byte("gdn chaos soak "), cfg.FileSize/15+1)[:cfg.FileSize]
	mod, err := w.Moderator("eu-1", "e12-moderator")
	if err != nil {
		panic(err)
	}
	oid, _, err := mod.CreatePackage("/apps/chaos", gdn.Scenario{
		Protocol: gdn.ProtocolMasterSlave,
		Servers:  w.GOSAddrs("eu-1", "eu-2"),
	}, gdn.Package{Files: map[string][]byte{"blob": content}})
	if err != nil {
		panic(fmt.Sprintf("e12: deploy: %v", err))
	}

	h, err := w.HTTPD("na-1", gdn.HTTPDConfig{})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(h)
	url := ts.URL + "/pkg/apps/chaos/-/blob"
	tr := &http.Transport{}
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	// The eu region record lives on the directory node at eu-1; a
	// resolver there observes registrations without crossing any of
	// the links the schedules break.
	res, err := w.GLSResolver("eu-1", nil)
	if err != nil {
		panic(err)
	}

	sched := e12Schedule(family, seed)
	run := netsim.NewRunner(w.Net, sched)
	r := e12Result{digest: sched.Digest(), reRegMS: -1}

	switch family {
	case "loss-jitter":
		run.AdvanceTo(0)
		for i := 0; i < cfg.Downloads; i++ {
			ok, corrupt := e12Download(client, url, content)
			r.attempted++
			if ok {
				r.ok++
			}
			if corrupt {
				r.corrupt++
			}
		}
		run.Finish()

	case "oneway-partition":
		run.AdvanceTo(0)
		for i := 0; i < cfg.Downloads; i++ {
			ok, corrupt := e12Download(client, url, content)
			r.attempted++
			if ok {
				r.ok++
			}
			if corrupt {
				r.corrupt++
			}
		}
		// Renewals from eu-2 are dying, so its entry must age out of
		// lookups — that is what makes the later re-registration a
		// real repair rather than a no-op.
		if _, ok := e12PollAddrs(res, oid, 5*cfg.LeaseTTL, func(n int) bool { return n < 2 }); !ok {
			panicE12(family, seed, "partitioned replica never aged out of the location service")
		}
		run.Finish()
		if took, ok := e12PollAddrs(res, oid, cfg.LeaseTTL, func(n int) bool { return n >= 2 }); !ok {
			panicE12(family, seed, fmt.Sprintf("replica not re-registered within one lease TTL (%s) of heal", cfg.LeaseTTL))
		} else {
			r.reRegMS = float64(took) / float64(time.Millisecond)
		}

	case "crash-restart":
		// A fleet of concurrent downloads, all provably mid-stream
		// when the crash lands.
		n := cfg.Downloads
		var started, okC, corruptC atomic.Int64
		firstBytes := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				signaled := false
				signal := func() {
					if !signaled {
						signaled = true
						if started.Add(1) == int64(n) {
							close(firstBytes)
						}
					}
				}
				defer signal()
				resp, err := client.Get(url)
				if err != nil {
					return
				}
				defer resp.Body.Close()
				head := make([]byte, 64<<10)
				if _, err := io.ReadFull(resp.Body, head); err != nil {
					return
				}
				signal()
				rest, err := io.ReadAll(resp.Body)
				if err != nil {
					return
				}
				if !bytes.Equal(append(head, rest...), content) {
					corruptC.Add(1)
					return
				}
				okC.Add(1)
			}()
		}
		<-firstBytes
		run.AdvanceTo(0) // crash eu-2 mid-fleet
		wg.Wait()
		r.attempted += n
		r.ok += int(okC.Load())
		r.corrupt += int(corruptC.Load())
		if _, ok := e12PollAddrs(res, oid, 5*cfg.LeaseTTL, func(n int) bool { return n < 2 }); !ok {
			panicE12(family, seed, "crashed replica never aged out of the location service")
		}
		run.Finish() // restart eu-2
		if took, ok := e12PollAddrs(res, oid, cfg.LeaseTTL, func(n int) bool { return n >= 2 }); !ok {
			panicE12(family, seed, fmt.Sprintf("replica not re-registered within one lease TTL (%s) of restart", cfg.LeaseTTL))
		} else {
			r.reRegMS = float64(took) / float64(time.Millisecond)
		}
	}

	// Error budget under injection, and a clean download once healed.
	if r.corrupt > 0 {
		panicE12(family, seed, fmt.Sprintf("%d downloads returned corrupt bytes", r.corrupt))
	}
	if 2*r.ok < r.attempted {
		panicE12(family, seed, fmt.Sprintf("error budget blown: %d/%d downloads succeeded under injection", r.ok, r.attempted))
	}
	e12PostHeal(client, url, content, family, seed)

	// Registry-counter invariants. Handler panics are recoverable at
	// the rpc layer but always a bug, in any family. Under loss-jitter
	// the links stay in-order streams, so a lost frame can only stall a
	// connection until a later send retransmits it; a stall may
	// condemn the connection as wedged, but each one needs at least one
	// held frame, so condemnations are bounded by lost frames. (The
	// counters are process-global while FaultStats is per-world, hence
	// the before/after deltas.)
	if d := obs.Default.CounterValue("gdn_rpc_server_panics_total") - panics0; d != 0 {
		panicE12(family, seed, fmt.Sprintf("%d RPC handler panics during the run", d))
	}
	if family == "loss-jitter" {
		lost := w.Net.FaultStats().Lost
		if lost == 0 {
			panicE12(family, seed, "no frame was lost: the family injected no loss")
		}
		if d := obs.Default.CounterValue(`gdn_rpc_conns_condemned_total{cause="wedged"}`) - wedged0; d > lost {
			panicE12(family, seed, fmt.Sprintf(
				"%d wedged-connection condemnations but only %d lost frames — the rpc layer condemned connections chaos left alone", d, lost))
		}
	}

	res.Close()
	ts.Close()
	tr.CloseIdleConnections()
	w.Close()
	r.timeline = run.Timeline()
	r.leaked = testutil.Leaked(g0, 2, 3*time.Second)
	if r.leaked > 0 {
		panicE12(family, seed, fmt.Sprintf("%d goroutines leaked after teardown", r.leaked))
	}
	return r
}

// e12Download fetches the blob once. ok means HTTP 200 with the exact
// deployed bytes; corrupt means a complete 200 body that differs from
// them — the invariant that must never fire. Transport errors,
// truncations, and 5xx are visible failures, charged to the error
// budget instead.
func e12Download(c *http.Client, url string, want []byte) (ok, corrupt bool) {
	resp, err := c.Get(url)
	if err != nil {
		return false, false
	}
	defer resp.Body.Close()
	body, readErr := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || readErr != nil {
		return false, false
	}
	if !bytes.Equal(body, want) {
		return false, true
	}
	return true, false
}

// e12PostHeal requires one clean download shortly after the schedule
// heals. The dial-backoff gate may hold a previously unreachable peer
// out for up to a second, so a short retry window is part of the
// contract rather than a flake shield.
func e12PostHeal(c *http.Client, url string, want []byte, family string, seed int64) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok, corrupt := e12Download(c, url, want)
		if corrupt {
			panicE12(family, seed, "post-heal download returned corrupt bytes")
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			panicE12(family, seed, "no clean download within 5s of heal")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// e12PollAddrs polls the location service until the count of distinct
// registered replica addresses satisfies want, reporting how long it
// took and whether it happened inside the window.
func e12PollAddrs(res *gls.Resolver, oid ids.OID, window time.Duration, want func(int) bool) (time.Duration, bool) {
	start := time.Now()
	deadline := start.Add(window)
	for {
		n := 0
		if addrs, _, err := res.Lookup(oid); err == nil {
			seen := make(map[string]bool, len(addrs))
			for _, ca := range addrs {
				seen[ca.Address] = true
			}
			n = len(seen)
		}
		if want(n) {
			return time.Since(start), true
		}
		if time.Now().After(deadline) {
			return time.Since(start), false
		}
		time.Sleep(50 * time.Millisecond)
	}
}
