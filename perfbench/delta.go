package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gdn/internal/obs"
)

// snapshot is one reading of every counter the benchmark derives
// per-layer and end-to-end ratios from: the obs registry, the Go
// runtime, process CPU time and the host's CPU accounting. Two
// snapshots bracket a measured phase; their delta is all the program
// did inside it.
type snapshot struct {
	at      time.Time
	reg     map[string]obs.Sample
	cpu     time.Duration // process user+sys
	mallocs uint64
	bytes   uint64 // TotalAlloc
	gcCPU   float64
	allCPU  float64
	gcs     uint64
	gor     int
	steal   uint64 // host jiffies
	jiffies uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func takeSnapshot() snapshot {
	s := snapshot{at: time.Now(), reg: make(map[string]obs.Sample)}
	for _, smp := range obs.Default.Snapshot() {
		s.reg[smp.Name] = smp
	}
	s.cpu = processCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.bytes = ms.Mallocs, ms.TotalAlloc
	metrics.Read(runtimeSamples)
	s.gcCPU = runtimeSamples[0].Value.Float64()
	s.allCPU = runtimeSamples[1].Value.Float64()
	s.gcs = runtimeSamples[2].Value.Uint64()
	s.gor = runtime.NumGoroutine()
	s.steal, s.jiffies = hostCPU()
	return s
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU reads the aggregate "cpu" line of /proc/stat: steal jiffies
// and the total over every field. Both read 0 where it is missing.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// delta is the difference between two snapshots.
type delta struct {
	a, b snapshot
}

func (d delta) cpu() time.Duration  { return d.b.cpu - d.a.cpu }
func (d delta) mallocs() float64    { return float64(d.b.mallocs - d.a.mallocs) }
func (d delta) allocBytes() float64 { return float64(d.b.bytes - d.a.bytes) }
func (d delta) gcCycles() float64   { return float64(d.b.gcs - d.a.gcs) }
func (d delta) goroutines() float64 { return float64(d.b.gor - d.a.gor) }

// gcCPUFrac is the share of the process's CPU time the GC spent.
func (d delta) gcCPUFrac() ratio {
	return ratio{d.b.gcCPU - d.a.gcCPU, d.b.allCPU - d.a.allCPU}
}

// stealFrac is the share of host CPU time the hypervisor stole.
func (d delta) stealFrac() ratio {
	return ratio{float64(d.b.steal - d.a.steal), float64(d.b.jiffies - d.a.jiffies)}
}

// counter is a counter's increase; for a label family ("name{") it
// sums every series of the family.
func (d delta) counter(name string) float64 {
	var v int64
	for k, s := range d.b.reg {
		if k == name || (strings.HasSuffix(name, "{") && strings.HasPrefix(k, name)) {
			v += s.Value - d.a.reg[k].Value
		}
	}
	return float64(v)
}

// hist is a histogram's observations between the two snapshots.
func (d delta) hist(name string) obs.HistogramSnapshot {
	b, ok := d.b.reg[name]
	if !ok || b.Hist == nil {
		return obs.HistogramSnapshot{}
	}
	if a, ok := d.a.reg[name]; ok && a.Hist != nil {
		return b.Hist.Delta(*a.Hist)
	}
	return *b.Hist
}

// histCount is the number of observations of a histogram.
func (d delta) histCount(name string) float64 { return float64(d.hist(name).Count) }

// histSumMS is the summed observations of a time histogram in ms.
func (d delta) histSumMS(name string) float64 { return float64(d.hist(name).Sum) / 1e6 }

// ratio is a derived figure kept with its base, so a reader can tell a
// ratio of zero events from a ratio of many.
type ratio struct {
	num, base float64
}

// value is num/base, 0 on an empty base.
func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return r.num / r.base
}
