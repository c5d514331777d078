package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"gdn/internal/core"
	"gdn/internal/modtool"
	"gdn/internal/pkgobj"
	"gdn/internal/repl"
)

// workload is one traffic mix against one deployment.
type workload struct {
	name    string
	clients int
	secure  bool
	edge    edgeMode
	// publish deploys the workload's catalogue and warms the stack up.
	publish func(r *run) error
	// prepare readies a client's next operation outside the timed
	// interval; nil when there is nothing to prepare.
	prepare func(r *run, c *client)
	// op performs one timed operation and returns its verified payload
	// bytes. op and parent are the trace ids (0 when tracing is off).
	op func(r *run, c *client, op, parent uint64) (int64, error)
	// check asserts, after the untraced measured phase, that the
	// workload still isolates the layers it was chosen for.
	check func(r *run, p *phase) []string
	// probeFile indexes the published file the layer probes use.
	probeFile int
}

var workloads = map[string]*workload{
	"small_cached": {
		name: "small_cached", clients: 2, edge: edgeCaching,
		publish: publishSmall, op: opSmall, check: checkSmall,
	},
	"bulk_secure": {
		name: "bulk_secure", clients: 1, secure: true, edge: edgeProxy,
		publish: publishBulk, op: opBulk, check: checkBulk,
		probeFile: 1, // the 20 MiB file
	},
	"publish": {
		name: "publish", clients: 1, edge: edgeProxy,
		publish: publishPublish, prepare: preparePublish, op: opPublish, check: checkPublish,
	},
}

// Catalogue shapes.
const (
	smallPackages = 100
	smallFiles    = 10
	zipfS         = 0.9
)

// run is one deployment with its catalogue.
type run struct {
	wl    *workload
	seed  uint64
	st    *stack
	files []*fileSpec
	zipf  *zipf
	// cacheBytes is the edge chunk-store capacity (small_cached).
	cacheBytes int64
	// start is the control-plane state publish leaves (publish).
	start controlState
	// deck is what is left of the current round of bulk downloads.
	deck []int
	// probe is the cold runtime the layer probes resolve and bind on.
	probe *core.Runtime
	// lookupsAtStart is the directory nodes' lookup count when the
	// measured load began (settling included).
	lookupsAtStart int64
	// cachePeak is the most bytes the edge's chunk store was seen
	// holding since warm-up (small_cached).
	cachePeak atomic.Int64
	// diag holds workload-specific diagnostics for the output.
	diag map[string]any
}

// scenario places a package's one replica on the object server.
func scenario(r *run) core.Scenario {
	return core.Scenario{Protocol: repl.ClientServer, Servers: []string{r.st.gosCmd}}
}

// newRun deploys the workload's stack under dir. The catalogue is
// published and the stack warmed up by the workload's publish step.
func newRun(wl *workload, seed uint64, dir string) (*run, error) {
	r := &run{wl: wl, seed: seed}
	cfg := stackConfig{dir: dir, secure: wl.secure, edge: wl.edge}
	if wl.name == "small_cached" {
		r.files = smallCatalogue(seed, smallPackages, smallFiles)
		var total int64
		for _, f := range r.files {
			total += int64(f.size)
		}
		r.cacheBytes = total / 2
		cfg.cacheBytes = r.cacheBytes
	}
	st, err := deploy(cfg)
	if err != nil {
		return nil, err
	}
	r.st = st
	if err := wl.publish(r); err != nil {
		st.Close()
		return nil, err
	}
	return r, nil
}

func (r *run) close() { r.st.Close() }

// publishFiles creates one package per distinct package name, files
// generated from their seeds and described (digest, chunk refs) on the
// way; the bytes are dropped once the package exists.
func (r *run) publishFiles(files []*fileSpec) error {
	byPkg := make(map[string][]*fileSpec)
	var names []string
	for _, f := range files {
		if byPkg[f.pkg] == nil {
			names = append(names, f.pkg)
		}
		byPkg[f.pkg] = append(byPkg[f.pkg], f)
	}
	sort.Strings(names)
	for _, name := range names {
		pkg := modtool.Package{Files: make(map[string][]byte)}
		for _, f := range byPkg[name] {
			content := make([]byte, f.size)
			fillContent(content, f.contentSeed)
			f.describe(content)
			pkg.Files[f.path] = content
		}
		if _, _, err := r.st.tool.CreatePackage(name, scenario(r), pkg); err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
	}
	return nil
}

// warm runs n operations on each client outside any measured phase.
func (r *run) warm(clients []*client, n int) error {
	for _, c := range clients {
		for range n {
			if r.wl.prepare != nil {
				r.wl.prepare(r, c)
			}
			if _, err := r.wl.op(r, c, 0, 0); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// --- small_cached ----------------------------------------------------

func publishSmall(r *run) error {
	if err := r.publishFiles(r.files); err != nil {
		return err
	}
	r.zipf = newZipf(len(r.files), zipfS)
	// Fetch every file once: the edge binds every package and fills
	// its cache, so the measured phase starts in steady state.
	c := newClient(-1, r.seed, r.st.edgeURL)
	defer c.close()
	for _, f := range r.files {
		if _, err := c.get(f, 0, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	r.watchCache()
	return nil
}

// watchCache samples the edge chunk store's resident bytes every 50 ms
// until the stack closes.
func (r *run) watchCache() {
	sample := func() {
		if b := r.st.edge.Chunks().Stats().Bytes; b > r.cachePeak.Load() {
			r.cachePeak.Store(b)
		}
	}
	sample()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	r.st.onClose(func() { close(stop); <-done })
}

func opSmall(r *run, c *client, op, parent uint64) (int64, error) {
	return c.get(r.files[r.zipf.draw(c.rng)], op, parent)
}

// checkSmall also bounds the edge cache. The store never evicts chunks
// a live binding pins, and the edge keeps every binding it made, so
// once warm-up has bound the whole catalogue the cache holds all of it
// even though its capacity is half that: the bound is the larger of
// the capacity and the bound catalogue.
func checkSmall(r *run, p *phase) []string {
	bad := checkNoLookups(r, p)
	bad = append(bad, checkNoSec()...)
	var catalogue int64
	for _, f := range r.files {
		catalogue += int64(f.size)
	}
	peak := r.cachePeak.Load()
	r.diag = map[string]any{"edge_cache": map[string]int64{
		"peak_bytes": peak, "capacity_bytes": r.cacheBytes, "bound_catalogue_bytes": catalogue,
	}}
	if limit := max(r.cacheBytes, catalogue); peak > limit || peak == 0 {
		bad = append(bad, fmt.Sprintf("edge cache peaked at %d bytes; capacity %d, bound catalogue %d", peak, r.cacheBytes, catalogue))
	}
	return bad
}

// --- bulk_secure -----------------------------------------------------

func publishBulk(r *run) error {
	r.files = bulkCatalogue(r.seed)
	if err := r.publishFiles(r.files); err != nil {
		return err
	}
	c := newClient(-1, r.seed, r.st.edgeURL)
	defer c.close()
	for _, f := range r.files {
		if _, err := c.get(f, 0, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// opBulk downloads the files in seeded rounds: every file once per
// round, in an order the seed shuffles, so each size class gets an
// equal share of the operations. The deck is shared: bulk_secure has
// one client.
func opBulk(r *run, c *client, op, parent uint64) (int64, error) {
	if len(r.deck) == 0 {
		r.deck = c.rng.Perm(len(r.files))
	}
	f := r.files[r.deck[0]]
	r.deck = r.deck[1:]
	return c.get(f, op, parent)
}

func checkBulk(r *run, p *phase) []string {
	bad := checkNoLookups(r, p)
	if v := p.d.counter("gdn_rpc_send_sendfile_bytes_total"); v != 0 {
		bad = append(bad, fmt.Sprintf("%v bytes went out by sendfile on secured channels", v))
	}
	if !secChannelsLive() {
		bad = append(bad, "no sec channel is live: the deployment is not secured")
	}
	return bad
}

// --- publish ---------------------------------------------------------

// pubOp is one prepared publish operation.
type pubOp struct {
	name  string
	files []*fileSpec
	pkg   modtool.Package
	read  *fileSpec
}

func publishPublish(r *run) error {
	// One standing package gives the layer probes a file to read.
	r.files = []*fileSpec{{pkg: "/bench/standing", path: "probe.bin", size: 1 << 20, contentSeed: r.seed ^ 0x5eed}}
	if err := r.publishFiles(r.files); err != nil {
		return err
	}
	c := newClient(-1, r.seed, r.st.edgeURL)
	defer c.close()
	if err := r.warm([]*client{c}, 3); err != nil {
		return err
	}
	r.start = r.st.controlState()
	return nil
}

// preparePublish generates the next package: 2–4 files totalling
// 64 KiB–1 MiB (log-uniform), split at seeded points.
func preparePublish(r *run, c *client) {
	c.seq++
	total := logUniform(c.rng.Float64(), 64<<10, 1<<20)
	n := 2 + c.rng.IntN(3)
	cuts := []int{0, total}
	for range n - 1 {
		cuts = append(cuts, 1+c.rng.IntN(total-1))
	}
	sort.Ints(cuts)
	op := &pubOp{name: fmt.Sprintf("/bench/pub/c%d-%07d", c.id+1, c.seq), pkg: modtool.Package{Files: make(map[string][]byte)}}
	for i := range n {
		f := &fileSpec{pkg: op.name, path: fmt.Sprintf("part%d.bin", i), size: cuts[i+1] - cuts[i], contentSeed: c.rng.Uint64()}
		content := make([]byte, f.size)
		fillContent(content, f.contentSeed)
		f.describe(content)
		op.files = append(op.files, f)
		op.pkg.Files[f.path] = content
	}
	op.read = op.files[c.rng.IntN(n)]
	c.next = op
}

// opPublish is the moderator's and a user's round trip: create the
// package, bind its name, read one file and verify it, remove it.
func opPublish(r *run, c *client, op, parent uint64) (int64, error) {
	p := c.next.(*pubOp)
	c.next = nil
	_, end := trc.begin("modtool.create", op, parent)
	_, _, err := r.st.tool.CreatePackage(p.name, scenario(r), p.pkg)
	end(0)
	if err != nil {
		return 0, fmt.Errorf("create %s: %w", p.name, err)
	}
	_, end = trc.begin("core.bind", op, parent)
	lr, _, err := r.st.user.BindName(p.name)
	end(0)
	if err != nil {
		return 0, fmt.Errorf("bind %s: %w", p.name, err)
	}
	_, end = trc.begin("pkgobj.read", op, parent)
	c.hash.Reset()
	n, err := pkgobj.NewStub(lr).ReadFileTo(c.hash, p.read.path)
	end(n)
	lr.Close()
	if err == nil {
		n, err = c.verify(p.read, n)
	}
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", p.name, err)
	}
	if op != 0 {
		if err := probeResolve(r, p.name, op, parent); err != nil {
			return 0, err
		}
	}
	_, end = trc.begin("modtool.remove", op, parent)
	_, err = r.st.tool.RemovePackage(p.name)
	end(0)
	if err != nil {
		return 0, fmt.Errorf("remove %s: %w", p.name, err)
	}
	return n, nil
}

func checkPublish(r *run, p *phase) []string {
	bad := checkNoSec()
	if now := r.st.controlState(); now != r.start {
		bad = append(bad, fmt.Sprintf("control-plane state drifted: %+v at start, %+v at end", r.start, now))
	}
	return bad
}

// --- bypass predictions ---------------------------------------------

// controlState is what a publish round trip must leave unchanged.
type controlState struct {
	glsRecords, hosted, zoneRRs int
}

func (s *stack) controlState() controlState {
	return controlState{glsRecords: s.glsRecords(), hosted: s.gos.Hosted(), zoneRRs: s.zoneSize()}
}

// checkNoLookups asserts the measured phase resolved nothing: no GLS
// lookup left a resolver and none reached a directory node, so no new
// binding was made.
func checkNoLookups(r *run, p *phase) []string {
	var bad []string
	if v := p.d.histCount("gdn_gls_resolver_lookup_seconds"); v != 0 {
		bad = append(bad, fmt.Sprintf("%v GLS lookups after warm-up", v))
	}
	if v := r.st.glsLookups() - r.lookupsAtStart; v != 0 {
		bad = append(bad, fmt.Sprintf("directory nodes served %d lookups after warm-up", v))
	}
	return bad
}

// secChannelsLive reports whether any goroutine is inside a security
// channel — every live sec connection parks one in Channel.Recv.
func secChannelsLive() bool {
	buf := make([]byte, 8<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Contains(string(buf), "gdn/internal/sec.(*Channel)")
}

func checkNoSec() []string {
	if secChannelsLive() {
		return []string{"a sec channel is live in a plain deployment"}
	}
	return nil
}
