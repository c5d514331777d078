// Package httpd implements the GDN-enabled HTTPD (paper §4): the web
// server that makes the GDN reachable from standard browsers. URLs
// embed the name of a package DSO; the server extracts the name, binds
// to the object through the Globe runtime, and renders listings or
// streams file contents.
//
// Two flavours exist, selected by Config.CacheObjects:
//
//   - the plain GDN-HTTPD binds ordinary client proxies, so every file
//     read travels to the nearest replica;
//   - the caching flavour (the paper's "the local representative that
//     is installed in the GDN-HTTPD during binding may act as a
//     replica for the DSO, in which case downloading a software
//     package is fast") installs a cache-protocol replica instead, so
//     repeated downloads are served from local state. The same
//     configuration with user credentials is the GDN-enabled proxy
//     server users run on their own machines.
//
// URL space:
//
//	/                      → redirect to /browse/
//	/browse/<dir>          → directory listing from the name service
//	/pkg/<name>            → package contents listing
//	/pkg/<name>/-/<file>   → file download ("/-/" separates the object
//	                         name from the file path, both of which
//	                         contain slashes)
//
// The handler is a standard net/http.Handler, so the daemon serves real
// browsers while tests and experiments drive it in-process; the virtual
// network cost of each request is reported in the X-GDN-Cost header.
package httpd

import (
	"errors"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gdn/internal/core"
	"gdn/internal/gls"
	"gdn/internal/gns"
	"gdn/internal/ids"
	"gdn/internal/obs"
	"gdn/internal/pkgobj"
	"gdn/internal/repl"
	"gdn/internal/rpc"
	"gdn/internal/store"
	"gdn/internal/transport"
)

// Config assembles a GDN-enabled HTTPD.
type Config struct {
	// Runtime supplies binding; it must have both a resolver and a name
	// service.
	Runtime *core.Runtime
	// CacheObjects installs cache-protocol replicas instead of plain
	// proxies during binding.
	CacheObjects bool
	// Disp is the dispatcher for hosted cache replicas; required when
	// CacheObjects is set.
	Disp *core.Dispatcher
	// CacheParams tunes the cache subobjects (ttl, mode).
	CacheParams map[string]string
	// RegisterCaches also registers each cache replica in the location
	// service, making this HTTPD a replica other clients can find —
	// the paper's "may act as a replica" in full.
	RegisterCaches bool
	// LeaseTTL is the lifetime of this HTTPD's registration session
	// with the location service (RegisterCaches mode): every cache
	// registration is attached to one session, renewed by a single
	// batched heartbeat, so a killed proxy's caches vanish from
	// lookups within one TTL — exactly the liveness contract object
	// servers run under. A value <= 0 selects the default (30s).
	LeaseTTL time.Duration
	// RenewEvery overrides the heartbeat cadence (default LeaseTTL/3);
	// negative disables the background loop (tests renew by hand with
	// RenewLeases).
	RenewEvery time.Duration
	// CacheBytes bounds the shared content store behind cache replicas
	// (caching mode only): chunks of dropped or expired state age out
	// least-recently-used first instead of vanishing, so a refill
	// fetches only what was actually evicted. 0 selects 256 MiB.
	CacheBytes int64
	// StateDir roots the cache's chunk store on disk (caching mode
	// only), so the proxy cache survives restarts: a rebooted HTTPD
	// re-indexes the chunks a previous process left and refills only
	// what it never had. "" keeps the cache in memory.
	StateDir string
	// ScrubEvery is the interval between background scrubbing passes
	// over a disk-backed cache. 0 selects a default; negative disables.
	ScrubEvery time.Duration
	// Logf receives diagnostics; nil discards them.
	Logf func(string, ...any)
}

// defaultLeaseTTL matches the object servers' registration lifetime: a
// registered cache is a replica and lives under the same contract.
const defaultLeaseTTL = 30 * time.Second

// Stats counts served traffic for the experiments.
type Stats struct {
	// Requests served, by kind.
	Listings  int64
	Downloads int64
	Errors    int64
	// Ranges counts downloads answered 206 (a byte range, not the
	// whole file); they are included in Downloads too.
	Ranges int64
	// NotModified counts conditional requests answered 304.
	NotModified int64
	// BytesServed is payload bytes sent to HTTP clients.
	BytesServed int64
	// VirtualCost accumulates the Globe-side network cost of all
	// requests.
	VirtualCost time.Duration
}

// handlerStats is the live form of Stats: independent atomic counters,
// so concurrent downloads bump them without sharing a lock on the hot
// streaming path. Stats() assembles the exported snapshot view.
type handlerStats struct {
	listings    atomic.Int64
	downloads   atomic.Int64
	errors      atomic.Int64
	ranges      atomic.Int64
	notModified atomic.Int64
	bytesServed atomic.Int64
	virtualCost atomic.Int64 // nanoseconds
}

// Handler is the GDN-enabled HTTPD logic.
type Handler struct {
	cfg Config

	// chunks backs every cache replica this HTTPD hosts: one shared
	// LRU store, so content cached for one package survives that
	// package's state drops and is deduplicated across packages.
	// Disk-backed when Config.StateDir is set, so it also survives
	// restarts.
	chunks *store.Store

	// sess is the registration session cache registrations attach to
	// (RegisterCaches mode); nil otherwise.
	sess *gls.ServerSession
	// stopRenew halts the session heartbeat loop.
	stopRenew func()

	mu       sync.Mutex
	bindings map[string]*binding

	stats handlerStats
}

// binding caches one bound object so repeated requests skip the
// location lookup.
type binding struct {
	name string
	stub *pkgobj.Stub
	// registered remembers a GLS registration to undo on Close.
	registered bool

	// modMu guards the cached package modification stamp, so serving
	// Last-Modified does not cost a replica invocation per download.
	modMu      sync.Mutex
	modStamp   time.Time
	modFetched time.Time
}

// modStampTTL bounds how stale a binding's cached Last-Modified may
// run. The ETag (fetched fresh per request) stays the precise
// validator; a date at most this stale is within ordinary HTTP
// Last-Modified semantics.
const modStampTTL = 10 * time.Second

// modified returns the binding's package modification stamp, cached.
// The zero time means the package carries no stamp.
func (h *Handler) modified(b *binding) time.Time {
	now := time.Now()
	b.modMu.Lock()
	defer b.modMu.Unlock()
	if !b.modFetched.IsZero() && now.Sub(b.modFetched) < modStampTTL {
		return b.modStamp
	}
	b.modStamp = time.Time{}
	if stamp, err := b.stub.GetMeta(pkgobj.MetaModified); err == nil && stamp != "" {
		if secs, perr := strconv.ParseInt(stamp, 10, 64); perr == nil {
			b.modStamp = time.Unix(secs, 0).UTC()
		}
	}
	h.addCost(b.stub.TakeCost())
	b.modFetched = now
	return b.modStamp
}

// New builds a handler.
func New(cfg Config) (*Handler, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("httpd: config needs a runtime")
	}
	if cfg.Runtime.Names() == nil {
		return nil, fmt.Errorf("httpd: runtime needs a name service")
	}
	if cfg.CacheObjects && cfg.Disp == nil {
		return nil, fmt.Errorf("httpd: caching mode needs a dispatcher")
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 256 << 20
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	h := &Handler{cfg: cfg, bindings: make(map[string]*binding)}
	if cfg.CacheObjects {
		if cfg.StateDir != "" {
			dir := filepath.Join(cfg.StateDir, "cache-chunks")
			chunks, err := store.Open(dir, store.WithCapacity(cfg.CacheBytes))
			if err != nil {
				return nil, fmt.Errorf("httpd: open disk cache: %w", err)
			}
			h.chunks = chunks
			chunks.StartScrubber(cfg.ScrubEvery, func(res store.ScrubResult) {
				for _, ref := range res.Quarantined {
					cfg.Logf("httpd: scrub quarantined corrupt cache chunk %s", ref.Short())
				}
			})
		} else {
			h.chunks = store.Mem(store.WithCapacity(cfg.CacheBytes))
		}
	}
	// A registering proxy is a replica server and leases like one: one
	// session covers every cache registration, and a single batched
	// renewal per heartbeat keeps them all alive — so a killed proxy's
	// caches age out of lookups within one TTL instead of lingering
	// forever.
	if cfg.CacheObjects && cfg.RegisterCaches {
		if cfg.Runtime.Resolver() == nil {
			return nil, fmt.Errorf("httpd: registering caches needs a location-service resolver")
		}
		ttl := cfg.LeaseTTL
		if ttl <= 0 {
			ttl = defaultLeaseTTL
		}
		sess, _, err := cfg.Runtime.Resolver().OpenSession(cfg.Disp.Addr(), ttl)
		if err != nil {
			return nil, fmt.Errorf("httpd: open registration session: %w", err)
		}
		h.sess = sess
		every := cfg.RenewEvery
		if every == 0 {
			every = ttl / 3
		}
		if every > 0 {
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				t := time.NewTicker(every)
				defer t.Stop()
				for {
					select {
					case <-stop:
						return
					case <-t.C:
						h.RenewLeases()
					}
				}
			}()
			var once sync.Once
			h.stopRenew = func() { once.Do(func() { close(stop) }); <-done }
		}
	}
	return h, nil
}

// RenewLeases renews the registration session now. The background loop
// calls it on a ticker; tests call it directly.
func (h *Handler) RenewLeases() {
	if h.sess == nil {
		return
	}
	if _, err := h.sess.Renew(); err != nil {
		h.cfg.Logf("httpd: renew registration session: %v", err)
	}
}

// Chunks exposes the shared cache store (nil in non-caching mode);
// tests and experiments inspect it.
func (h *Handler) Chunks() *store.Store { return h.chunks }

// Stats snapshots the handler's counters. The snapshot is assembled
// from independent atomic loads: each field is exact, but a concurrent
// request may land between loads, so cross-field sums can be off by
// the requests in flight — the same guarantee the registry gives.
func (h *Handler) Stats() Stats {
	return Stats{
		Listings:    h.stats.listings.Load(),
		Downloads:   h.stats.downloads.Load(),
		Errors:      h.stats.errors.Load(),
		Ranges:      h.stats.ranges.Load(),
		NotModified: h.stats.notModified.Load(),
		BytesServed: h.stats.bytesServed.Load(),
		VirtualCost: time.Duration(h.stats.virtualCost.Load()),
	}
}

// Close releases all cached bindings, deregisters registered caches and
// ends the registration session — the orderly-shutdown path. A killed
// proxy skips all of this; its session simply ages out.
func (h *Handler) Close() error {
	if h.stopRenew != nil {
		h.stopRenew()
	}
	h.mu.Lock()
	bindings := h.bindings
	h.bindings = make(map[string]*binding)
	// The session close below expires every attached registration in
	// one round trip per subnode; per-binding deregistration would just
	// repeat that N times.
	for _, b := range bindings {
		b.registered = false
	}
	h.mu.Unlock()
	for _, b := range bindings {
		h.releaseBinding(b)
	}
	if h.sess != nil {
		if _, err := h.sess.Close(); err != nil {
			h.cfg.Logf("httpd: close registration session: %v", err)
		}
	}
	if h.chunks != nil {
		return h.chunks.Close()
	}
	return nil
}

func (h *Handler) releaseBinding(b *binding) {
	if b.registered {
		if _, err := h.sess.Detach(b.stub.LR().OID()); err != nil {
			h.cfg.Logf("httpd: deregister cache for %s: %v", b.name, err)
		}
	}
	b.stub.Close()
}

// addCost accumulates virtual network cost on the atomic counter.
func (h *Handler) addCost(d time.Duration) {
	if d != 0 {
		h.stats.virtualCost.Add(int64(d))
	}
}

// ServeHTTP implements http.Handler. Every request runs under a fresh
// trace: the root span covers the whole service time, and the trace
// context flows with the download path through the replication layer
// to whichever store finally walks the chunks — the edge → httpd →
// replica → store chain /debug/gdn/traces shows.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	span := obs.StartTrace("httpd " + r.Method + " " + r.URL.Path)
	sw := &statusWriter{ResponseWriter: w, started: func() {
		mTTFBSeconds.ObserveSince(start)
	}}
	defer func() {
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		requestClass(sw.status).Inc()
		mBytesServed.Add(sw.bytes)
		mRequestSeconds.ObserveSince(start)
		if sw.status >= 500 {
			span.SetError(fmt.Errorf("status %d", sw.status))
		}
		span.End()
	}()
	w = sw

	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		h.fail(w, http.StatusMethodNotAllowed, "only GET is supported")
		return
	}
	switch {
	case r.URL.Path == "/":
		http.Redirect(w, r, "/browse/", http.StatusFound)
	case strings.HasPrefix(r.URL.Path, "/browse/"):
		h.serveBrowse(w, strings.TrimPrefix(r.URL.Path, "/browse"))
	case strings.HasPrefix(r.URL.Path, "/pkg/"):
		h.servePackage(w, r, span.Context(), strings.TrimPrefix(r.URL.Path, "/pkg"))
	case r.URL.Path == "/search":
		h.serveSearch(w, r.URL.Query().Get("q"))
	default:
		h.fail(w, http.StatusNotFound, "unknown path; try /browse/")
	}
}

func (h *Handler) fail(w http.ResponseWriter, status int, msg string) {
	h.stats.errors.Add(1)
	http.Error(w, msg, status)
}

// splitObjectURL splits "/<object-name>[/-/<file-path>]".
func splitObjectURL(p string) (objectName, filePath string) {
	if i := strings.Index(p, "/-/"); i >= 0 {
		return p[:i], p[i+3:]
	}
	return p, ""
}

// bind returns a (cached) binding for an object name. In caching mode
// the binding hosts a cache replica filled from the nearest replica the
// location service returned.
func (h *Handler) bind(objectName string) (*binding, time.Duration, error) {
	h.mu.Lock()
	b, ok := h.bindings[objectName]
	h.mu.Unlock()
	if ok {
		return b, 0, nil
	}

	rt := h.cfg.Runtime
	var stub *pkgobj.Stub
	var cost time.Duration
	registered := false
	if h.cfg.CacheObjects {
		oid, nameCost, err := rt.Names().Resolve(objectName)
		if err != nil {
			return nil, nameCost, err
		}
		peers, lookupCost, err := rt.Resolver().Lookup(oid)
		cost = nameCost + lookupCost
		if err != nil {
			return nil, cost, err
		}
		lr, ca, err := rt.NewReplica(core.ReplicaSpec{
			OID:      oid,
			Impl:     pkgobj.Impl,
			Protocol: repl.Cache,
			Role:     repl.RoleCache,
			Params:   h.cfg.CacheParams,
			Peers:    peers,
			Store:    h.chunks,
		}, h.cfg.Disp)
		if err != nil {
			return nil, cost, err
		}
		if h.sess != nil {
			// Leased: attached to the proxy's registration session.
			_, regCost, regErr := h.sess.Attach(oid, ca)
			if regErr != nil {
				h.cfg.Logf("httpd: register cache for %s: %v", objectName, regErr)
			} else {
				cost += regCost
				registered = true
			}
		}
		stub = pkgobj.NewStub(lr)
	} else {
		lr, bindCost, err := rt.BindName(objectName)
		cost = bindCost
		if err != nil {
			return nil, cost, err
		}
		stub = pkgobj.NewStub(lr)
	}

	b = &binding{name: objectName, stub: stub, registered: registered}
	h.mu.Lock()
	if existing, raced := h.bindings[objectName]; raced {
		h.mu.Unlock()
		h.releaseBinding(b)
		return existing, cost, nil
	}
	h.bindings[objectName] = b
	h.mu.Unlock()
	return b, cost, nil
}

// dropBinding forgets a binding whose object vanished.
func (h *Handler) dropBinding(objectName string) {
	h.mu.Lock()
	b, ok := h.bindings[objectName]
	delete(h.bindings, objectName)
	h.mu.Unlock()
	if ok {
		h.releaseBinding(b)
	}
}

var browseTemplate = template.Must(template.New("browse").Parse(`<!DOCTYPE html>
<html><head><title>GDN: {{.Dir}}</title></head>
<body>
<h1>Globe Distribution Network</h1>
<h2>Directory {{.Dir}}</h2>
<ul>
{{range .Entries}}<li><a href="{{.Href}}">{{.Name}}</a></li>
{{end}}</ul>
</body></html>
`))

type browseEntry struct {
	Name string
	Href string
}

func (h *Handler) serveBrowse(w http.ResponseWriter, dir string) {
	if dir == "" {
		dir = "/"
	}
	// One Entries round trip lists and classifies every child: the
	// parent's record set carries a package marker per object child, so
	// no per-child Resolve probes (whose virtual cost the old code also
	// forgot to count) are needed.
	children, cost, err := h.cfg.Runtime.Names().Entries(dir)
	h.addCost(cost)
	if err != nil {
		h.fail(w, http.StatusNotFound, fmt.Sprintf("directory %s: %v", dir, err))
		return
	}

	entries := make([]browseEntry, 0, len(children))
	for _, child := range children {
		full := path.Join(dir, child.Name)
		if child.Package {
			entries = append(entries, browseEntry{Name: child.Name, Href: "/pkg" + full})
		} else {
			entries = append(entries, browseEntry{Name: child.Name + "/", Href: "/browse" + full})
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("X-GDN-Cost", cost.String())
	h.stats.listings.Add(1)
	if err := browseTemplate.Execute(w, map[string]any{"Dir": dir, "Entries": entries}); err != nil {
		h.cfg.Logf("httpd: render browse %s: %v", dir, err)
	}
}

var listingTemplate = template.Must(template.New("pkg").Parse(`<!DOCTYPE html>
<html><head><title>GDN package {{.Name}}</title></head>
<body>
<h1>Package {{.Name}}</h1>
{{if .Description}}<p>{{.Description}}</p>{{end}}
<table>
<tr><th>File</th><th>Size</th><th>SHA-256</th></tr>
{{range .Files}}<tr><td><a href="{{.Href}}">{{.Path}}</a></td><td>{{.Size}}</td><td><code>{{.Digest}}</code></td></tr>
{{end}}</table>
</body></html>
`))

type listingFile struct {
	Path   string
	Href   string
	Size   int64
	Digest string
}

// notFound classifies a final failure as 404-shaped.
func notFound(err error) bool {
	return errors.Is(err, gns.ErrNotFound) || errors.Is(err, gls.ErrNotFound) ||
		strings.Contains(err.Error(), pkgobj.ErrNoFile.Error())
}

// retryable reports whether a fresh binding might cure a failure:
// transport-level errors mean the bound replica (or the path to it)
// died, and the dispatcher's replica-gone error means the contact
// address outlived the replica behind it. Application refusals — an
// unknown name (gns/gls not-found sentinels are raised locally, not
// remotely), a missing file, a denied write — are final: retrying
// them would only double the resolution load of every 404.
func retryable(err error) bool {
	if err == nil || notFound(err) {
		return false
	}
	if !rpc.IsRemote(err) {
		return true
	}
	return strings.Contains(err.Error(), "no representative for object")
}

func (h *Handler) servePackage(w http.ResponseWriter, r *http.Request, tc obs.SpanContext, p string) {
	objectName, filePath := splitObjectURL(p)
	if objectName == "" || objectName == "/" {
		h.fail(w, http.StatusNotFound, "missing package name")
		return
	}
	h.serveObject(w, r, tc, objectName, filePath, 0)
}

// serveObjectRetries is how many times one request re-binds through
// fresh peers before answering 502. Two attempts after the original
// ride out a replica that died with its registration still cached AND
// the brief window where the replacement's dial gate is still backing
// off — the double fault chaos crash/restart schedules produce.
const serveObjectRetries = 2

// serveObject binds and serves one listing or download. When an
// attempt fails before any body byte in a way a fresh binding might
// cure — the cached binding points at a replica that has since died —
// the binding is dropped and the request retried through fresh peers
// (with a short jittered pause between attempts), instead of answering
// 502 off a cached corpse. (Failures after body bytes flowed cannot be
// retried at this layer; mid-stream replica failover lives in the
// replication subobject.)
func (h *Handler) serveObject(w http.ResponseWriter, r *http.Request, tc obs.SpanContext, objectName, filePath string, attempt int) {
	b, bindCost, err := h.bind(objectName)
	h.addCost(bindCost)
	if err == nil {
		if filePath == "" {
			err = h.serveListing(w, b)
		} else {
			err = h.serveFile(w, r, tc, b, filePath)
		}
		if retryable(err) {
			// Only failures a fresh binding might cure cost the cached
			// binding; an app-level refusal (missing file) keeps it.
			h.dropBinding(objectName)
		}
	}
	if err == nil {
		return
	}
	if attempt < serveObjectRetries && retryable(err) {
		h.cfg.Logf("httpd: %s: retrying through fresh peers: %v", objectName, err)
		if attempt > 0 {
			// Pause before second and later retries: an instant rebind
			// after a double fault tends to land inside the dead path's
			// dial-backoff window and burn the budget for nothing.
			time.Sleep(transport.Backoff(attempt, 5*time.Millisecond, 50*time.Millisecond))
		}
		h.serveObject(w, r, tc, objectName, filePath, attempt+1)
		return
	}
	status := http.StatusBadGateway
	if notFound(err) {
		status = http.StatusNotFound
	}
	h.fail(w, status, fmt.Sprintf("package %s: %v", objectName, err))
}

func (h *Handler) serveListing(w http.ResponseWriter, b *binding) error {
	infos, err := b.stub.ListContents()
	cost := b.stub.TakeCost()
	h.addCost(cost)
	if err != nil {
		return fmt.Errorf("list: %w", err)
	}
	desc, _ := b.stub.GetMeta("description")
	h.addCost(b.stub.TakeCost())

	files := make([]listingFile, 0, len(infos))
	for _, fi := range infos {
		files = append(files, listingFile{
			Path:   fi.Path,
			Href:   "/pkg" + b.name + "/-/" + fi.Path,
			Size:   fi.Size,
			Digest: fmt.Sprintf("%x", fi.Digest[:8]),
		})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("X-GDN-Cost", cost.String())
	h.stats.listings.Add(1)
	if err := listingTemplate.Execute(w, map[string]any{
		"Name": b.name, "Description": desc, "Files": files,
	}); err != nil {
		h.cfg.Logf("httpd: render listing %s: %v", b.name, err)
	}
	return nil
}

var searchTemplate = template.Must(template.New("search").Parse(`<!DOCTYPE html>
<html><head><title>GDN search: {{.Query}}</title></head>
<body>
<h1>Search results for &quot;{{.Query}}&quot;</h1>
<ul>
{{range .Hits}}<li><a href="{{.Href}}">{{.Name}}</a> (matched {{.Matched}})</li>
{{end}}</ul>
</body></html>
`))

type searchHit struct {
	Name    string
	Href    string
	Matched string
}

// serveSearch walks the name space and matches the query against
// package names and metadata — the attribute-based search the paper
// plans beyond exact names (§2, §8).
func (h *Handler) serveSearch(w http.ResponseWriter, query string) {
	query = strings.ToLower(strings.TrimSpace(query))
	if query == "" {
		h.fail(w, http.StatusBadRequest, "missing ?q= query")
		return
	}
	var hits []searchHit
	cost, err := h.cfg.Runtime.Names().Walk("/", func(name string, _ ids.OID) error {
		if strings.Contains(strings.ToLower(name), query) {
			hits = append(hits, searchHit{Name: name, Href: "/pkg" + name, Matched: "name"})
			return nil
		}
		b, bindCost, err := h.bind(name)
		h.addCost(bindCost)
		if err != nil {
			return nil // tolerate races with removals
		}
		meta, err := b.stub.Meta()
		h.addCost(b.stub.TakeCost())
		if err != nil {
			return nil
		}
		for key, val := range meta {
			if strings.HasPrefix(key, "gdn.") {
				continue // internal bookkeeping is not searchable
			}
			if strings.Contains(strings.ToLower(val), query) {
				hits = append(hits, searchHit{Name: name, Href: "/pkg" + name, Matched: key})
				return nil
			}
		}
		return nil
	})
	h.addCost(cost)
	if err != nil {
		h.fail(w, http.StatusBadGateway, fmt.Sprintf("search: %v", err))
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	h.stats.listings.Add(1)
	if err := searchTemplate.Execute(w, map[string]any{"Query": query, "Hits": hits}); err != nil {
		h.cfg.Logf("httpd: render search: %v", err)
	}
}

// serveFile streams a file to the browser with chunk-bounded
// buffering: the content flows replica store → frame stream → HTTP
// body one chunk at a time. A whole-file download is verified against
// the file's SHA-256 digest (§6.1) by the read beneath it, and a
// failed check may only be known once every byte has flowed, where
// HTTP offers the server no in-band signal. So the last declared byte
// is held back until the read returns verified: a body that fails its
// check reaches the client short of Content-Length, which HTTP
// clients treat as failure, or, when nothing was sent yet, as a 502.
// A client never receives a complete 200 for content that failed.
//
// The manifest's whole-file SHA-256 doubles as a strong ETag, which
// makes the standard HTTP machinery for cheap re-fetches work against
// the GDN: If-None-Match revalidation answers 304 from a Stat alone,
// and single byte ranges (a download manager resuming, a client
// fetching the changed tail of a mostly-unchanged artifact) are served
// 206 straight from the chunk store — OpBulkRead always took [off, n).
// Partial bodies cannot be digest-verified end to end; they rest on
// the chunk layer's per-chunk verification instead.
func (h *Handler) serveFile(w http.ResponseWriter, r *http.Request, tc obs.SpanContext, b *binding, filePath string) error {
	fi, err := b.stub.Stat(filePath)
	if err != nil {
		h.addCost(b.stub.TakeCost())
		return fmt.Errorf("file %s: %w", filePath, err)
	}

	etag := fmt.Sprintf(`"%x"`, fi.Digest)
	w.Header().Set("ETag", etag)
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set("X-GDN-Digest", fmt.Sprintf("%x", fi.Digest))

	// Last-Modified rides the package's replicated modification stamp;
	// per-file granularity is deliberately not claimed (any moderator
	// change bumps the whole package). The ETag stays the precise
	// validator; Last-Modified serves clients that only speak dates,
	// from a per-binding cache so the hot download path pays no extra
	// replica invocation.
	lastMod := h.modified(b)
	if !lastMod.IsZero() {
		w.Header().Set("Last-Modified", lastMod.Format(http.TimeFormat))
	}

	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		h.stats.notModified.Add(1)
		h.addCost(b.stub.TakeCost())
		w.WriteHeader(http.StatusNotModified)
		return nil
	}
	// If-Modified-Since applies only without If-None-Match (RFC 9110
	// §13.1.3): a date is a weaker validator than an entity tag.
	if ims := r.Header.Get("If-Modified-Since"); ims != "" && r.Header.Get("If-None-Match") == "" && !lastMod.IsZero() {
		if t, perr := http.ParseTime(ims); perr == nil && !lastMod.After(t) {
			h.stats.notModified.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return nil
		}
	}

	w.Header().Set("Content-Type", "application/octet-stream")

	// A Range is honoured only when the client's copy is current: an
	// If-Range naming another version means its partial copy is of
	// different content, so it gets the whole file.
	rangeHdr := r.Header.Get("Range")
	if ir := r.Header.Get("If-Range"); ir != "" && strings.TrimSpace(ir) != etag {
		rangeHdr = ""
	}
	if rangeHdr != "" {
		off, n, ok, satisfiable := parseRange(rangeHdr, fi.Size)
		switch {
		case !ok:
			// Syntactically malformed (or multi-range, which this server
			// does not slice): per RFC 9110 the header is ignored and the
			// whole file served.
		case !satisfiable:
			w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", fi.Size))
			h.fail(w, http.StatusRequestedRangeNotSatisfiable,
				fmt.Sprintf("range %q outside %d-byte file", rangeHdr, fi.Size))
			return nil
		default:
			w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
			w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+n-1, fi.Size))
			w.WriteHeader(http.StatusPartialContent)
			var served int64
			if r.Method != http.MethodHead {
				served, err = b.stub.ReadFileToT(tc, w, filePath, off, n)
				if err != nil {
					// Headers (and possibly bytes) are out; the response
					// cannot be retried, only truncated.
					h.cfg.Logf("httpd: stream range %s/%s after %d bytes: %v", b.name, filePath, served, err)
				}
			}
			h.stats.downloads.Add(1)
			h.stats.ranges.Add(1)
			h.stats.bytesServed.Add(served)
			h.addCost(b.stub.TakeCost())
			return nil
		}
	}

	w.Header().Set("Content-Length", strconv.FormatInt(fi.Size, 10))
	var served int64
	if r.Method != http.MethodHead {
		body := &holdLast{w: w, left: fi.Size}
		_, err = b.stub.ReadFileToT(tc, body, filePath, 0, -1)
		if err == nil {
			err = body.release()
		}
		served = body.passed
		if err != nil {
			if served == 0 {
				h.addCost(b.stub.TakeCost())
				return fmt.Errorf("file %s: %w", filePath, err)
			}
			h.cfg.Logf("httpd: stream %s/%s after %d bytes: %v", b.name, filePath, served, err)
		}
	}
	h.stats.downloads.Add(1)
	h.stats.bytesServed.Add(served)
	h.addCost(b.stub.TakeCost())
	return nil
}

// holdLast passes a whole-file body through to w except its final
// declared byte, which release writes once the read has verified the
// body; a failed read leaves the response one byte short at least.
type holdLast struct {
	w      io.Writer
	left   int64 // declared bytes not yet passed through, the held one included
	passed int64 // bytes written to w
	last   [1]byte
	held   bool
}

func (hl *holdLast) Write(p []byte) (int, error) {
	if int64(len(p)) > hl.left {
		return 0, fmt.Errorf("httpd: body runs past its %d declared bytes", hl.passed+hl.left)
	}
	pass := p
	if int64(len(p)) == hl.left && len(p) > 0 {
		hl.last[0], hl.held = p[len(p)-1], true
		pass = p[:len(p)-1]
	}
	n, err := hl.w.Write(pass)
	hl.passed += int64(n)
	hl.left -= int64(n)
	if err != nil {
		return n, err
	}
	return len(p), nil
}

// release writes the held-back final byte.
func (hl *holdLast) release() error {
	if !hl.held {
		return nil
	}
	hl.held = false
	n, err := hl.w.Write(hl.last[:])
	hl.passed += int64(n)
	return err
}

// etagMatch implements the If-None-Match comparison: a comma-separated
// list of entity tags, or "*" for any. Our tags are strong, but a
// client echoing one back weakened (W/ prefix) still names the same
// bytes, so the weak comparison is used.
func etagMatch(header, etag string) bool {
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate != "" && (candidate == "*" || candidate == etag) {
			return true
		}
	}
	return false
}

// parseRange interprets a single-range "bytes=" header against a file
// of the given size, returning the [off, off+n) window. ok reports a
// syntactically usable single range (multi-range headers and other
// units report !ok and are ignored by the caller, which RFC 9110
// permits); satisfiable reports whether it selects at least one byte.
func parseRange(header string, size int64) (off, n int64, ok, satisfiable bool) {
	spec, isBytes := strings.CutPrefix(strings.TrimSpace(header), "bytes=")
	if !isBytes || strings.Contains(spec, ",") {
		return 0, 0, false, false
	}
	first, last, dashed := strings.Cut(strings.TrimSpace(spec), "-")
	if !dashed {
		return 0, 0, false, false
	}
	if first == "" {
		// Suffix form "-N": the final N bytes.
		suffix, err := strconv.ParseInt(last, 10, 64)
		if err != nil || suffix < 0 {
			return 0, 0, false, false
		}
		if suffix == 0 || size == 0 {
			return 0, 0, true, false
		}
		if suffix > size {
			suffix = size
		}
		return size - suffix, suffix, true, true
	}
	start, err := strconv.ParseInt(first, 10, 64)
	if err != nil || start < 0 {
		return 0, 0, false, false
	}
	end := size - 1 // open form "N-"
	if last != "" {
		end, err = strconv.ParseInt(last, 10, 64)
		if err != nil || end < start {
			return 0, 0, false, false
		}
	}
	if start >= size {
		return 0, 0, true, false
	}
	if end >= size {
		end = size - 1
	}
	return start, end - start + 1, true, true
}
