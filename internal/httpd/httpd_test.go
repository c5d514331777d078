package httpd_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gdn"
	"gdn/internal/core"
	"gdn/internal/httpd"
)

// world publishes one package and returns the world plus a running
// HTTP test server backed by a GDN-HTTPD at the given site.
func world(t *testing.T, site string, cfg gdn.HTTPDConfig) (*gdn.World, *httpd.Handler, *httptest.Server) {
	t.Helper()
	w, err := gdn.NewWorld(gdn.DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	mod, err := w.Moderator("eu-nl-vu", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mod.CreatePackage("/apps/graphics/gimp", gdn.Scenario{
		Protocol: gdn.ProtocolMasterSlave,
		Servers:  w.GOSAddrs("eu-nl-vu", "na-ca-ucb"),
	}, gdn.Package{
		Files: map[string][]byte{
			"README":          []byte("The GNU Image Manipulation Program"),
			"src/gimp.tar":    bytes.Repeat([]byte("pixel"), 100_000),
			"docs/manual.txt": []byte("manual text"),
		},
		Meta: map[string]string{"description": "image editor"},
	}); err != nil {
		t.Fatal(err)
	}

	h, err := w.HTTPD(site, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return w, h, ts
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestBrowseAndListing(t *testing.T) {
	_, _, ts := world(t, "na-ny-cu", gdn.HTTPDConfig{})

	// Root redirects to /browse/.
	resp, body := get(t, ts.URL+"/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "apps") {
		t.Fatalf("root browse misses /apps: %s", body)
	}

	// Descend to the package.
	_, body = get(t, ts.URL+"/browse/apps/graphics")
	if !strings.Contains(string(body), "/pkg/apps/graphics/gimp") {
		t.Fatalf("directory misses package link: %s", body)
	}

	// The package listing names every file with size and digest.
	resp, body = get(t, ts.URL+"/pkg/apps/graphics/gimp")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	page := string(body)
	for _, want := range []string{"README", "src/gimp.tar", "docs/manual.txt", "image editor", "500000"} {
		if !strings.Contains(page, want) {
			t.Fatalf("listing misses %q:\n%s", want, page)
		}
	}
	if resp.Header.Get("X-GDN-Cost") == "" {
		t.Fatal("listing must report its virtual cost")
	}
}

func TestFileDownload(t *testing.T) {
	_, h, ts := world(t, "na-ny-cu", gdn.HTTPDConfig{})

	resp, body := get(t, ts.URL+"/pkg/apps/graphics/gimp/-/src/gimp.tar")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(body) != 500_000 {
		t.Fatalf("downloaded %d bytes, want 500000", len(body))
	}
	if !bytes.Equal(body, bytes.Repeat([]byte("pixel"), 100_000)) {
		t.Fatal("content mismatch")
	}
	if resp.Header.Get("X-GDN-Digest") == "" {
		t.Fatal("download must carry the integrity digest")
	}
	if resp.ContentLength != 500_000 {
		t.Fatalf("content-length = %d", resp.ContentLength)
	}

	// The handler records the download after the last body write, so
	// the client can hold the whole body before the stats land: wait
	// for them rather than race the handler.
	st := h.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.BytesServed < 500_000 && time.Now().Before(deadline); st = h.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Downloads != 1 || st.BytesServed != 500_000 {
		t.Fatalf("stats = %+v", st)
	}
	if st.VirtualCost <= 0 {
		t.Fatal("download must accumulate virtual cost")
	}
}

func TestNotFoundPaths(t *testing.T) {
	_, h, ts := world(t, "na-ny-cu", gdn.HTTPDConfig{})

	cases := []string{
		"/pkg/apps/graphics/nosuch",
		"/pkg/apps/graphics/gimp/-/nosuch.file",
		"/browse/apps/nosuchdir",
		"/unknown/prefix",
	}
	for _, path := range cases {
		resp, _ := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	if h.Stats().Errors < int64(len(cases)) {
		t.Fatalf("stats = %+v", h.Stats())
	}
}

func TestMethodRestrictions(t *testing.T) {
	_, _, ts := world(t, "na-ny-cu", gdn.HTTPDConfig{})
	resp, err := http.Post(ts.URL+"/pkg/apps/graphics/gimp", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST = %d, want 405", resp.StatusCode)
	}
}

func TestCachingHTTPDServesRepeatsLocally(t *testing.T) {
	w, h, ts := world(t, "ap-jp-ut", gdn.HTTPDConfig{
		Caching:     true,
		CacheParams: map[string]string{"ttl": "1h"},
	})

	// First download fills the cache replica from the nearest slave.
	get(t, ts.URL+"/pkg/apps/graphics/gimp/-/README")
	costAfterFirst := h.Stats().VirtualCost
	if costAfterFirst <= 0 {
		t.Fatal("first download must cost")
	}

	// Repeats are served from local cache state: zero added virtual
	// cost and no new network frames.
	before := w.Net.Meter()
	get(t, ts.URL+"/pkg/apps/graphics/gimp/-/README")
	if added := h.Stats().VirtualCost - costAfterFirst; added != 0 {
		t.Fatalf("repeat download added %v virtual cost", added)
	}
	if diff := w.Net.Meter().Sub(before); diff.TotalFrames() != 0 {
		t.Fatalf("repeat download sent %d frames", diff.TotalFrames())
	}
}

func TestCachingHTTPDSeesUpdatesAfterTTL(t *testing.T) {
	w, _, ts := world(t, "ap-jp-ut", gdn.HTTPDConfig{
		Caching:     true,
		CacheParams: map[string]string{"ttl": "30s"},
	})
	get(t, ts.URL+"/pkg/apps/graphics/gimp/-/README")

	// A moderator updates the package.
	mod, err := w.Moderator("eu-nl-vu", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mod.UpdatePackage("/apps/graphics/gimp", func(s *gdn.Stub) error {
		return s.AddFile("README", []byte("brand new readme"))
	}); err != nil {
		t.Fatal(err)
	}

	// Within the TTL the proxy may serve the stale copy...
	_, body := get(t, ts.URL+"/pkg/apps/graphics/gimp/-/README")
	if string(body) != "The GNU Image Manipulation Program" {
		t.Fatalf("expected stale content inside TTL, got %q", body)
	}
	// ...after expiry it revalidates and serves the update.
	w.Clock.Advance(31 * time.Second)
	_, body = get(t, ts.URL+"/pkg/apps/graphics/gimp/-/README")
	if string(body) != "brand new readme" {
		t.Fatalf("expected fresh content after TTL, got %q", body)
	}
}

func TestRegisteredCacheBecomesReplica(t *testing.T) {
	w, _, ts := world(t, "ap-jp-ut", gdn.HTTPDConfig{
		Caching:        true,
		CacheParams:    map[string]string{"ttl": "1h"},
		RegisterCaches: true,
	})
	// Touch the package so the HTTPD binds and registers its cache.
	get(t, ts.URL+"/pkg/apps/graphics/gimp")

	// Another client in the same region now finds a replica locally:
	// its lookup returns the HTTPD's cache.
	rt, err := w.UserRuntime("ap-au-mu")
	if err != nil {
		t.Fatal(err)
	}
	oid, _, err := rt.Names().Resolve("/apps/graphics/gimp")
	if err != nil {
		t.Fatal(err)
	}
	addrs, _, err := rt.Resolver().Lookup(oid)
	if err != nil {
		t.Fatal(err)
	}
	foundCache := false
	for _, ca := range addrs {
		if ca.Role == "cache" && strings.HasPrefix(ca.Address, "ap-jp-ut:") {
			foundCache = true
		}
	}
	if !foundCache {
		t.Fatalf("registered cache not discoverable; lookup = %v", addrs)
	}
}

func TestConcurrentDownloads(t *testing.T) {
	_, h, ts := world(t, "na-ny-cu", gdn.HTTPDConfig{})
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/pkg/apps/graphics/gimp/-/src/gimp.tar")
			if err != nil {
				done <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && len(body) != 500_000 {
				err = fmt.Errorf("short read: %d", len(body))
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st := h.Stats(); st.Downloads != 8 {
		t.Fatalf("downloads = %d", st.Downloads)
	}
}

func TestAttributeSearch(t *testing.T) {
	w, _, ts := world(t, "na-ny-cu", gdn.HTTPDConfig{})

	// A second package distinguishes name-matches from meta-matches.
	mod, err := w.Moderator("eu-nl-vu", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mod.CreatePackage("/apps/tex/tetex", gdn.Scenario{
		Protocol: gdn.ProtocolClientServer,
		Servers:  w.GOSAddrs("eu-nl-vu"),
	}, gdn.Package{
		Files: map[string][]byte{"tetex.tar": []byte("tex")},
		Meta:  map[string]string{"description": "TeX typesetting distribution"},
	}); err != nil {
		t.Fatal(err)
	}

	// Meta match: "typesetting" only appears in tetex's description.
	_, body := get(t, ts.URL+"/search?q=typesetting")
	page := string(body)
	if !strings.Contains(page, "/pkg/apps/tex/tetex") {
		t.Fatalf("search misses meta match:\n%s", page)
	}
	if strings.Contains(page, "gimp") {
		t.Fatalf("search over-matches:\n%s", page)
	}

	// Name match.
	_, body = get(t, ts.URL+"/search?q=gimp")
	if !strings.Contains(string(body), "/pkg/apps/graphics/gimp") {
		t.Fatalf("search misses name match:\n%s", body)
	}

	// Empty query is a client error.
	resp, _ := get(t, ts.URL+"/search")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty query = %d", resp.StatusCode)
	}
}

// getWith issues a GET with extra headers.
func getWith(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestRangeRequests(t *testing.T) {
	_, h, ts := world(t, "na-ny-cu", gdn.HTTPDConfig{})
	full := bytes.Repeat([]byte("pixel"), 100_000)
	url := ts.URL + "/pkg/apps/graphics/gimp/-/src/gimp.tar"

	cases := []struct {
		name, spec string
		wantFrom   int64
		wantTo     int64 // inclusive
	}{
		{"middle", "bytes=100000-299999", 100_000, 299_999},
		{"open-ended", "bytes=499990-", 499_990, 499_999},
		{"suffix", "bytes=-5", 499_995, 499_999},
		{"first-byte", "bytes=0-0", 0, 0},
		{"clamped-end", "bytes=499000-900000", 499_000, 499_999},
	}
	for _, tc := range cases {
		resp, body := getWith(t, url, map[string]string{"Range": tc.spec})
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("%s: status %d, want 206", tc.name, resp.StatusCode)
		}
		if !bytes.Equal(body, full[tc.wantFrom:tc.wantTo+1]) {
			t.Fatalf("%s: wrong bytes (%d returned)", tc.name, len(body))
		}
		wantCR := fmt.Sprintf("bytes %d-%d/%d", tc.wantFrom, tc.wantTo, len(full))
		if cr := resp.Header.Get("Content-Range"); cr != wantCR {
			t.Fatalf("%s: Content-Range %q, want %q", tc.name, cr, wantCR)
		}
		if resp.Header.Get("ETag") == "" || resp.Header.Get("Accept-Ranges") != "bytes" {
			t.Fatalf("%s: range response misses ETag/Accept-Ranges", tc.name)
		}
	}

	// Unsatisfiable ranges answer 416 with the star form.
	for _, spec := range []string{"bytes=500000-", "bytes=-0", "bytes=9999999-10000000"} {
		resp, _ := getWith(t, url, map[string]string{"Range": spec})
		if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
			t.Fatalf("%s: status %d, want 416", spec, resp.StatusCode)
		}
		if cr := resp.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes */%d", len(full)) {
			t.Fatalf("%s: Content-Range %q", spec, cr)
		}
	}

	// Malformed and multi-range headers are ignored: full 200 body.
	for _, spec := range []string{"bytes=10-5", "bytes=a-b", "chunks=0-5", "bytes=0-5,10-15"} {
		resp, body := getWith(t, url, map[string]string{"Range": spec})
		if resp.StatusCode != http.StatusOK || len(body) != len(full) {
			t.Fatalf("%s: status %d body %d; want the full file", spec, resp.StatusCode, len(body))
		}
	}

	if st := h.Stats(); st.Ranges != int64(len(cases)) {
		t.Fatalf("stats.Ranges = %d, want %d", st.Ranges, len(cases))
	}
}

func TestETagRevalidationAndIfRange(t *testing.T) {
	_, h, ts := world(t, "na-ny-cu", gdn.HTTPDConfig{})
	url := ts.URL + "/pkg/apps/graphics/gimp/-/README"

	resp, body := get(t, url)
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("download carries no ETag")
	}
	if want := fmt.Sprintf(`"%x"`, sha256.Sum256(body)); etag != want {
		t.Fatalf("ETag %s is not the content digest %s", etag, want)
	}

	// If-None-Match with the current tag: 304, nothing streamed.
	resp, body = getWith(t, url, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("revalidation = %d with %d body bytes, want bare 304", resp.StatusCode, len(body))
	}
	if h.Stats().NotModified != 1 {
		t.Fatalf("stats.NotModified = %d", h.Stats().NotModified)
	}
	// A list containing the tag matches; a stale tag does not.
	resp, _ = getWith(t, url, map[string]string{"If-None-Match": `"deadbeef", ` + etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("list revalidation = %d", resp.StatusCode)
	}
	resp, _ = getWith(t, url, map[string]string{"If-None-Match": `"deadbeef"`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale revalidation = %d, want 200", resp.StatusCode)
	}

	// If-Range with the current tag honours the range; with a stale tag
	// the whole (changed) file is served instead of a misaligned slice.
	resp, part := getWith(t, url, map[string]string{"Range": "bytes=0-3", "If-Range": etag})
	if resp.StatusCode != http.StatusPartialContent || len(part) != 4 {
		t.Fatalf("If-Range match: %d with %d bytes", resp.StatusCode, len(part))
	}
	resp, part = getWith(t, url, map[string]string{"Range": "bytes=0-3", "If-Range": `"stale"`})
	if resp.StatusCode != http.StatusOK || len(part) == 4 {
		t.Fatalf("If-Range mismatch: %d with %d bytes, want the full file", resp.StatusCode, len(part))
	}
}

// TestDiskCacheSurvivesRestart reboots a caching HTTPD on the same
// StateDir and checks the second instance refills from disk, not the
// network: the whole point of wiring StateDir through httpd.Config.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	w, err := gdn.NewWorld(gdn.DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	mod, err := w.Moderator("eu-nl-vu", "alice")
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("cache me"), 100_000)
	if _, _, err := mod.CreatePackage("/apps/tool", gdn.Scenario{
		Protocol: gdn.ProtocolClientServer,
		Servers:  w.GOSAddrs("eu-nl-vu"),
	}, gdn.Package{Files: map[string][]byte{"tool.bin": content}}); err != nil {
		t.Fatal(err)
	}

	stateDir := t.TempDir()
	rt, err := w.UserRuntime("ap-jp-ut")
	if err != nil {
		t.Fatal(err)
	}
	start := func(objAddr string) *httpd.Handler {
		disp, err := core.NewDispatcher(w.Net, "ap-jp-ut", objAddr, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { disp.Close() })
		h, err := httpd.New(httpd.Config{
			Runtime:      rt,
			CacheObjects: true,
			Disp:         disp,
			CacheParams:  map[string]string{"ttl": "1h"},
			StateDir:     stateDir,
			ScrubEvery:   -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		return h
	}

	h1 := start("ap-jp-ut:hcache1")
	ts1 := httptest.NewServer(h1)
	_, body := get(t, ts1.URL+"/pkg/apps/tool/-/tool.bin")
	if !bytes.Equal(body, content) {
		t.Fatal("first download corrupt")
	}
	chunksOnDisk := h1.Chunks().Stats().Chunks
	if chunksOnDisk == 0 {
		t.Fatal("first download cached nothing")
	}
	ts1.Close()
	h1.Close()

	// Reboot: a fresh handler on the same directory re-indexes the
	// chunks the first one wrote.
	h2 := start("ap-jp-ut:hcache2")
	ts2 := httptest.NewServer(h2)
	t.Cleanup(ts2.Close)
	if got := h2.Chunks().Stats().Chunks; got != chunksOnDisk {
		t.Fatalf("restart recovered %d chunks, want %d", got, chunksOnDisk)
	}
	before := h2.Chunks().Stats()
	_, body = get(t, ts2.URL+"/pkg/apps/tool/-/tool.bin")
	if !bytes.Equal(body, content) {
		t.Fatal("post-restart download corrupt")
	}
	after := h2.Chunks().Stats()
	if after.Chunks != before.Chunks || after.Dedup != before.Dedup {
		t.Fatalf("post-restart refill fetched chunk bodies (%+v -> %+v); disk cache not reused", before, after)
	}
}
