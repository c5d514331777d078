package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// client is one closed-loop caller: it sends its next request only
// after the previous one completed, as an edge's callers each wait for
// their reply.
type client struct {
	id   int
	rng  *rand.Rand
	http *http.Client
	base string
	hash hash.Hash
	sum  []byte
	buf  []byte
	seq  uint64
	next any // the prepared operation (prepare → op)
}

func newClient(id int, seed uint64, base string) *client {
	return &client{
		id:  id,
		rng: rng(seed, 100+uint64(id)),
		// One keep-alive connection per client.
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base: base,
		hash: sha256.New(),
		sum:  make([]byte, 0, sha256.Size),
		buf:  make([]byte, 256<<10),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// get downloads one file through the edge and verifies its status,
// length and streaming SHA-256 against the digest recorded at publish.
// Only verified bytes are returned.
func (c *client) get(f *fileSpec, op, parent uint64) (int64, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+f.url(), nil)
	if err != nil {
		return 0, err
	}
	if op != 0 {
		req.Header.Set(opHeader, strconv.FormatUint(op, 10))
		req.Header.Set(spanHeader, strconv.FormatUint(parent, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("GET %s: status %d", f.url(), resp.StatusCode)
	}
	c.hash.Reset()
	n, err := io.CopyBuffer(c.hash, resp.Body, c.buf)
	if err != nil {
		return 0, fmt.Errorf("GET %s: body after %d bytes: %w", f.url(), n, err)
	}
	return c.verify(f, n)
}

// verify checks a body the client hashed against the catalogue.
func (c *client) verify(f *fileSpec, n int64) (int64, error) {
	if n != int64(f.size) {
		return 0, fmt.Errorf("%s/%s: %d bytes, want %d", f.pkg, f.path, n, f.size)
	}
	if !bytes.Equal(c.hash.Sum(c.sum[:0]), f.digest[:]) {
		return 0, fmt.Errorf("%s/%s: digest mismatch", f.pkg, f.path)
	}
	return n, nil
}

// window is one second of a measured phase, with the host's steal
// share over that second (see quiet).
type window struct {
	ops, failed int
	cpu         time.Duration // process user+sys
	steal       ratio         // host steal jiffies over all jiffies
}

const windowLen = time.Second

// minStealRange is the spread of per-window steal shares below which a
// phase counts as evenly disturbed and its figures are taken whole.
const minStealRange = 0.02

// phase is the outcome of one measured phase.
type phase struct {
	ops      int     // completed operations, failed ones included
	failed   int     // operations that errored or failed verification
	bytes    int64   // verified payload bytes
	elapsed  float64 // seconds, from the start to the last completion
	lat      []float64
	latWin   []int // window of each latency sample
	windows  []window
	d        delta
	liveHeap float64 // HeapAlloc after forced collections at the end, bytes
	errs     []string
}

// good is the number of operations that completed and verified.
func (p *phase) good() int { return p.ops - p.failed }

// bytesPerGood is the verified payload of an average verified
// operation. It does not depend on host conditions, so goodput is the
// quiet operation rate times it.
func (p *phase) bytesPerGood() float64 {
	if p.good() == 0 {
		return 0
	}
	return float64(p.bytes) / float64(p.good())
}

// perOp divides a phase total by its operation count.
func (p *phase) perOp(v float64) float64 {
	if p.ops == 0 {
		return 0
	}
	return v / float64(p.ops)
}

// quietFigures are a phase's wall-clock and CPU figures at its
// quietest host conditions.
type quietFigures struct {
	opsPerS, cpuMSPerOp, p50MS float64
	adjusted                   bool // false: whole-phase figures
}

// quiet returns the phase's figures at the lowest steal share any of its
// windows saw. Hypervisor steal on a shared host comes and goes within
// seconds and slows every wall-clock and CPU figure of the seconds it
// hits, so each per-window figure is fitted against the windows' steal
// shares by least squares and the line is read at the quietest
// window's share — inside the observed range, never extrapolated. When
// steal barely varies across the windows, the figures are the whole
// phase's.
func (p *phase) quiet() quietFigures {
	var steal, rate, cpuPerOp, p50, p50Steal, cpuSteal []float64
	byWin := make([][]float64, len(p.windows))
	for i, l := range p.lat {
		if w := p.latWin[i]; w < len(byWin) {
			byWin[w] = append(byWin[w], l)
		}
	}
	var ops, good int
	var cpu time.Duration
	for i, w := range p.windows {
		s := w.steal.value()
		steal = append(steal, s)
		rate = append(rate, float64(w.ops-w.failed)/windowLen.Seconds())
		if w.ops > 0 {
			cpuPerOp = append(cpuPerOp, w.cpu.Seconds()*1e3/float64(w.ops))
			cpuSteal = append(cpuSteal, s)
		}
		if len(byWin[i]) > 0 {
			p50 = append(p50, quantile(byWin[i], 0.5))
			p50Steal = append(p50Steal, s)
		}
		ops += w.ops
		good += w.ops - w.failed
		cpu += w.cpu
	}
	if len(steal) > 0 && slices.Max(steal)-slices.Min(steal) >= minStealRange {
		return quietFigures{
			opsPerS:    atQuietest(steal, rate),
			cpuMSPerOp: atQuietest(cpuSteal, cpuPerOp),
			p50MS:      atQuietest(p50Steal, p50),
			adjusted:   true,
		}
	}
	var all []float64
	for _, l := range byWin {
		all = append(all, l...)
	}
	secs := float64(len(p.windows)) * windowLen.Seconds()
	q := quietFigures{p50MS: quantile(all, 0.5)}
	if secs > 0 && ops > 0 {
		q.opsPerS = float64(good) / secs
		q.cpuMSPerOp = cpu.Seconds() * 1e3 / float64(ops)
	}
	return q
}

// atQuietest fits y = a + b·x by least squares and returns the line's
// value at the smallest x.
func atQuietest(x, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(len(x))
	my /= float64(len(x))
	var sxy, sxx float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
	}
	if sxx == 0 {
		return my
	}
	return my + sxy/sxx*(slices.Min(x)-mx)
}

// measure runs every client in a closed loop for the given duration.
// A failed operation's latency is recorded as +Inf, so it misses every
// latency limit.
func measure(r *run, clients []*client, dur time.Duration, traced bool) *phase {
	trc.on.Store(traced)
	defer trc.on.Store(false)
	p := &phase{}
	nwin := int(dur / windowLen)
	before := takeSnapshot()
	start := before.at
	deadline := start.Add(dur)
	type result struct {
		lat    []float64
		win    []int
		ops    int
		failed int
		bytes  int64
		end    time.Time
		errs   []string
		byWin  []window
	}
	results := make([]result, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[i]
			res.lat = make([]float64, 0, 1<<14)
			res.win = make([]int, 0, 1<<14)
			res.byWin = make([]window, nwin+1)
			for time.Now().Before(deadline) {
				if r.wl.prepare != nil {
					r.wl.prepare(r, c)
				}
				c.seq++
				var op uint64
				if traced {
					op = uint64(c.id+1)<<40 | c.seq
				}
				t0 := time.Now()
				id, end := trc.begin("op", op, 0)
				n, err := r.wl.op(r, c, op, id)
				end(n)
				res.end = time.Now()
				res.ops++
				w := min(int(res.end.Sub(start)/windowLen), nwin)
				res.byWin[w].ops++
				res.win = append(res.win, w)
				if err != nil {
					res.failed++
					res.byWin[w].failed++
					res.lat = append(res.lat, math.Inf(1))
					if len(res.errs) < 5 {
						res.errs = append(res.errs, err.Error())
					}
					continue
				}
				res.bytes += n
				res.lat = append(res.lat, res.end.Sub(t0).Seconds()*1e3)
			}
		}()
	}
	// Sample process CPU and host steal at every window boundary.
	cpuAt := make([]time.Duration, nwin+1)
	stealAt := make([]ratio, nwin+1)
	cpuAt[0], stealAt[0] = before.cpu, ratio{float64(before.steal), float64(before.jiffies)}
	for k := 1; k <= nwin; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * windowLen)))
		steal, total := hostCPU()
		cpuAt[k], stealAt[k] = processCPU(), ratio{float64(steal), float64(total)}
	}
	wg.Wait()
	after := takeSnapshot()
	p.windows = make([]window, nwin)
	for k := range p.windows {
		p.windows[k].cpu = cpuAt[k+1] - cpuAt[k]
		p.windows[k].steal = ratio{stealAt[k+1].num - stealAt[k].num, stealAt[k+1].base - stealAt[k].base}
	}
	var last time.Time
	for _, res := range results {
		p.ops += res.ops
		p.failed += res.failed
		p.bytes += res.bytes
		p.lat = append(p.lat, res.lat...)
		p.latWin = append(p.latWin, res.win...)
		p.errs = append(p.errs, res.errs...)
		for k := range p.windows {
			p.windows[k].ops += res.byWin[k].ops
			p.windows[k].failed += res.byWin[k].failed
		}
		if res.end.After(last) {
			last = res.end
		}
	}
	p.elapsed = last.Sub(start).Seconds()
	after.at = last
	p.d = delta{before, after}
	return p
}

// liveHeap is HeapAlloc after forced collections, in bytes. The second
// collection empties the sync.Pool victim caches the first one filled,
// so pooled buffers do not count as live.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// quantile returns the q-quantile of xs (nearest rank), 0 when empty.
// It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median of a small set of values, without disturbing the caller's
// order.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}
