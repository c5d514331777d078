// Command perfbench is the GDN's end-to-end benchmark. Each run deploys
// a complete GDN on loopback TCP in this process, publishes a seeded
// catalogue, warms up, drives one workload in a closed loop for a fixed
// time and prints one JSON result line. See README.md for the workloads
// and metrics.
//
//	perfbench --workload small_cached --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() { os.Exit(benchMain()) }

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchMain() int {
	processStart := time.Now()
	name := flag.String("workload", "", "small_cached, bulk_secure or publish")
	seed := flag.Uint64("seed", 1, "workload seed: contents, sizes and request sequence")
	seconds := flag.Float64("seconds", 10, "measured time; a traced run splits it between an untraced and a traced phase")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from an added traced phase")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags\n", *name)
		flag.Usage()
		return 2
	}
	traced := *traceFlag != 0
	runDir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)

	// Deploy, publish and warm up several times, each deployment torn
	// down before the next; only the last is measured. setup_s is the
	// median, the first one counted from process start.
	var setupS []float64
	var r *run
	for i := range setups {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if r, err = newRun(wl, *seed, filepath.Join(runDir, fmt.Sprintf("stack%d", i))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer r.close()

	clients := make([]*client, wl.clients)
	for i := range clients {
		clients[i] = newClient(i, *seed, r.st.edgeURL)
		defer clients[i].close()
	}
	window := time.Duration(*seconds * float64(time.Second))
	if traced {
		window /= 2
	}

	// Each measured phase follows settleTime of the same closed-loop
	// load, unmeasured, so it starts in the steady state of the load
	// rather than just after setup's last garbage collection.
	r.lookupsAtStart = r.st.glsLookups()
	measure(r, clients, settleTime, false)
	u := measure(r, clients, window, false)
	u.liveHeap = liveHeap()
	violations := wl.check(r, u)
	res := result{Attempted: u.ops, Failed: u.failed}
	errs := u.errs
	var t *phase
	var sp secProbe
	var tracePath string
	if traced {
		measure(r, clients, settleTime, false)
		t = measure(r, clients, window, true)
		res.Attempted += t.ops
		res.Failed += t.failed
		errs = append(errs, t.errs...)
		var err error
		if sp, err = runProbes(r); err != nil {
			errs = append(errs, err.Error())
			res.Failed++
		}
		tracePath = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl", wl.name, *seed))
		if err := trc.write(tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
		}
	}
	res.Correct = res.Failed == 0 && len(violations) == 0

	diag := map[string]any{
		"workload":            wl.name,
		"seed":                *seed,
		"trace":               *traceFlag,
		"setup_s_each":        setupS,
		"host.steal_frac":     withBase(u.d.stealFrac()),
		"runtime.gc_cpu_frac": withBase(u.d.gcCPUFrac()),
		"client.samples":      len(u.lat),
		"elapsed_s":           u.elapsed,
		"windows":             windowDiag(u),
		"steal_adjusted":      u.quiet().adjusted,
		"bypass_violations":   violations,
		"errors":              errs,
	}
	if traced {
		diag["trace_file"] = tracePath
	}
	for k, v := range r.diag {
		diag[k] = v
	}
	if b, err := json.Marshal(diag); err == nil {
		fmt.Printf("perfbench diagnostics: %s\n", b)
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "perfbench: bypass prediction failed: %s\n", v)
	}
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %s\n", e)
	}

	if traced {
		res.Metrics = perLayer(u, t, trc.layers(), sp)
		if len(res.Metrics) != len(perLayerNames) {
			fmt.Fprintf(os.Stderr, "perfbench: %d per-layer metrics, catalogue names %d\n", len(res.Metrics), len(perLayerNames))
			return 1
		}
	} else {
		res.Metrics = endToEnd(u, setupS)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = math.MaxFloat32
			res.Metrics[k] = m
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// windowDiag lists each second of a phase as operations/CPU ms/steal
// share.
func windowDiag(p *phase) []string {
	out := make([]string, len(p.windows))
	for i, w := range p.windows {
		out[i] = fmt.Sprintf("%d/%.0f/%.3f", w.ops, w.cpu.Seconds()*1e3, w.steal.value())
	}
	return out
}

func withBase(r ratio) map[string]float64 {
	return map[string]float64{"value": r.value(), "num": r.num, "base": r.base}
}

// setups is how many deployments a run makes; setup_s is their median.
const setups = 3

// settleTime is the unmeasured load before each measured phase.
const settleTime = 2 * time.Second

const (
	kB = 1 << 10
	mB = 1 << 20
)

// endToEnd is what a user of the system sees, from the untraced phase.
// Rates, latency and CPU are read at the phase's quietest host
// conditions; allocation and heap figures are the whole phase's.
func endToEnd(u *phase, setupS []float64) map[string]metric {
	q := u.quiet()
	return map[string]metric{
		"setup_s":         {median(setupS), "s"},
		"ops_per_s":       {q.opsPerS, "1/s"},
		"goodput_mb_s":    {q.opsPerS * u.bytesPerGood() / mB, "MB/s"},
		"op_p50_ms":       {q.p50MS, "ms"},
		"cpu_ms_per_op":   {q.cpuMSPerOp, "ms"},
		"allocs_per_op":   {u.perOp(u.d.mallocs()), "count"},
		"alloc_kb_per_op": {u.perOp(u.d.allocBytes() / kB), "kB"},
		"live_heap_mb":    {u.liveHeap / mB, "MB"},
	}
}

// perLayer derives the per-layer metrics: registry and runtime deltas
// of the untraced phase u, spans of the traced phase t and the probes.
func perLayer(u, t *phase, layers map[string]*layerTime, sp secProbe) map[string]metric {
	d := u.d
	m := make(map[string]metric)
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	serve := layers["httpd.serve"]
	if serve != nil && t.ops > 0 {
		set("httpd.serve_ms_p50", "ms", serve.p50())
		inner := t.d.histSumMS("gdn_store_get_seconds") + t.d.histSumMS("gdn_rpc_client_call_seconds")
		set("httpd.self_ms_per_op", "ms", max(0, serve.inclusive.Seconds()*1e3-inner)/float64(t.ops))
		set("http.client_ms_per_op", "ms", layers["op"].self.Seconds()*1e3/float64(t.ops))
	} else {
		set("httpd.serve_ms_p50", "ms", 0)
		set("httpd.self_ms_per_op", "ms", 0)
		set("http.client_ms_per_op", "ms", 0)
	}
	ttfb := d.hist("gdn_httpd_ttfb_seconds")
	set("httpd.ttfb_ms_mean", "ms", ratio{float64(ttfb.Sum) / 1e6, float64(ttfb.Count)}.value())
	set("httpd.sink_write_ms_per_op", "ms", u.perOp(d.histSumMS("gdn_httpd_sink_write_seconds")))

	hits, misses := d.counter("gdn_repl_cache_hits_total"), d.counter("gdn_repl_cache_misses_total")
	set("repl.cache_hit_ratio", "ratio", ratio{hits, hits + misses}.value())
	set("repl.fill_kb_per_op", "kB", u.perOp(d.counter("gdn_repl_fill_bytes_total")/kB))

	gets := d.hist("gdn_store_get_seconds")
	set("store.gets_per_op", "count", u.perOp(float64(gets.Count)))
	set("store.get_us_mean", "us", ratio{float64(gets.Sum) / 1e3, float64(gets.Count)}.value())
	fills := d.counter("gdn_repl_fill_chunks_total")
	set("store.hit_ratio", "ratio", ratio{max(0, float64(gets.Count)-fills), float64(gets.Count)}.value())
	set("store.evictions_per_op", "count", u.perOp(d.counter("gdn_store_evictions_total")))
	set("store.prefetch_stall_ratio", "ratio", ratio{d.counter("gdn_store_prefetch_stalls_total"), d.counter("gdn_store_prefetch_fetched_total")}.value())
	set("store.zerocopy_kb_per_op", "kB", u.perOp(d.counter("gdn_store_serve_zerocopy_bytes_total")/kB))
	set("store.pooled_kb_per_op", "kB", u.perOp(d.counter("gdn_store_serve_pooled_bytes_total")/kB))
	set("store.getzc_ms_per_mb", "ms/MB", layers["store.getzc"].msPerMB())
	set("store.put_ms_per_op", "ms", u.perOp(d.histSumMS("gdn_store_put_seconds")))
	set("store.dedup_ratio", "ratio", ratio{d.counter("gdn_store_dedup_total"), d.histCount("gdn_store_put_seconds")}.value())

	calls := d.hist("gdn_rpc_client_call_seconds")
	set("rpc.calls_per_op", "count", u.perOp(float64(calls.Count)))
	set("rpc.call_ms_mean", "ms", ratio{float64(calls.Sum) / 1e6, float64(calls.Count)}.value())
	set("rpc.server_op_ms_per_op", "ms", u.perOp(d.histSumMS("gdn_rpc_server_op_seconds")))
	set("rpc.assembled_frames_per_op", "count", u.perOp(d.counter("gdn_rpc_send_assembled_frames_total")))
	set("rpc.vec_frames_per_op", "count", u.perOp(d.counter("gdn_rpc_send_vec_frames_total")))
	sendfile := d.counter("gdn_rpc_send_sendfile_bytes_total")
	set("rpc.sendfile_bytes_share", "ratio", ratio{sendfile, sendfile + d.counter("gdn_rpc_send_vec_bytes_total")}.value())
	rpcErrs := d.counter("gdn_rpc_client_call_errors_total") + d.counter("gdn_rpc_client_timeouts_total") + d.counter("gdn_rpc_client_retries_total")
	set("rpc.errors_per_op", "count", u.perOp(rpcErrs))

	set("sec.seal_open_ms_per_mb", "ms/MB", layers["sec.seal_open"].msPerMB())
	set("sec.allocs_per_record", "count", ratio{sp.allocs, float64(sp.records)}.value())
	set("sec.alloc_kb_per_record", "kB", ratio{sp.byts / kB, float64(sp.records)}.value())
	set("pkgobj.read_ms_per_mb", "ms/MB", layers["pkgobj.read"].msPerMB())
	set("core.bind_ms_p50", "ms", layers["core.bind"].p50())
	set("gns.resolve_ms_p50", "ms", layers["gns.resolve"].p50())
	set("gls.lookup_ms_p50", "ms", layers["gls.lookup"].p50())
	set("gls.lookups_per_op", "count", u.perOp(d.histCount("gdn_gls_resolver_lookup_seconds")))
	set("gls.log_kb_per_op", "kB", u.perOp(d.counter("gdn_gls_log_bytes_total")/kB))
	set("gls.append_ms_per_op", "ms", u.perOp(d.histSumMS("gdn_gls_snapshot_append_seconds")))
	set("modtool.create_ms_p50", "ms", layers["modtool.create"].p50())
	set("modtool.remove_ms_p50", "ms", layers["modtool.remove"].p50())

	set("runtime.gc_cpu_frac", "ratio", d.gcCPUFrac().value())
	set("runtime.gc_cycles_per_op", "count", u.perOp(d.gcCycles()))
	set("runtime.goroutines_delta", "count", d.goroutines())
	set("host.steal_frac", "ratio", d.stealFrac().value())
	lat := append([]float64(nil), u.lat...)
	set("client.op_p90_ms", "ms", quantile(lat, 0.90))
	set("client.op_p99_ms", "ms", quantile(lat, 0.99))
	set("client.samples", "count", float64(len(lat)))
	uRate, tRate := u.quiet().opsPerS, t.quiet().opsPerS
	set("trace.overhead_frac", "ratio", ratio{uRate - tRate, uRate}.value())
	return m
}

// perLayerNames lists the per-layer metrics in catalogue order; the
// README and BENCHMARK.json name the same set.
var perLayerNames = strings.Fields(`
httpd.serve_ms_p50 httpd.self_ms_per_op http.client_ms_per_op httpd.ttfb_ms_mean
httpd.sink_write_ms_per_op repl.cache_hit_ratio repl.fill_kb_per_op store.gets_per_op
store.get_us_mean store.hit_ratio store.evictions_per_op store.prefetch_stall_ratio
store.zerocopy_kb_per_op store.pooled_kb_per_op store.getzc_ms_per_mb store.put_ms_per_op
store.dedup_ratio rpc.calls_per_op rpc.call_ms_mean rpc.server_op_ms_per_op
rpc.assembled_frames_per_op rpc.vec_frames_per_op rpc.sendfile_bytes_share rpc.errors_per_op
sec.seal_open_ms_per_mb sec.allocs_per_record sec.alloc_kb_per_record pkgobj.read_ms_per_mb
core.bind_ms_p50 gns.resolve_ms_p50 gls.lookup_ms_p50 gls.lookups_per_op gls.log_kb_per_op
gls.append_ms_per_op modtool.create_ms_p50 modtool.remove_ms_p50 runtime.gc_cpu_frac
runtime.gc_cycles_per_op runtime.goroutines_delta host.steal_frac client.op_p90_ms
client.op_p99_ms client.samples trace.overhead_frac`)
