package gdn_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"gdn"
	"gdn/internal/gos"
	"gdn/internal/pkgobj"
	"gdn/internal/transport"
)

// TestLargeFileRoundTrip is the tentpole acceptance check: a 64 MiB
// file — over four times the seed's 15 MiB MaxFileSize ceiling, and
// larger than both the wire field limit (16 MiB) and the transport
// frame limit (20 MiB) — round-trips create → replicate → download.
// That it completes at all proves chunk-bounded transfer end to end:
// the moderator uploads chunk-sized batches, the slave replica delta-
// syncs chunk by chunk, and the HTTPD download is a frame stream; any
// content-sized frame anywhere on the path would be refused by the
// transport's MaxFrame guard. Content integrity is verified against
// the SHA-256 manifest at the HTTP edge (the handler's streaming
// verify) and re-checked here.
func TestLargeFileRoundTrip(t *testing.T) {
	const size = 64<<20 + 333 // not chunk-aligned on purpose
	if int64(size) < 3*transport.MaxFrame {
		t.Fatal("test content no longer exceeds frame bounds; raise it")
	}
	w := newWorld(t, gdn.DefaultTopology())

	content := make([]byte, size)
	rand.New(rand.NewSource(64)).Read(content)
	wantDigest := sha256.Sum256(content)

	mod, err := w.Moderator("eu-nl-vu", "large-mod")
	if err != nil {
		t.Fatal(err)
	}
	// Master in Europe, slave in North America: creation exercises the
	// chunked upload, slave creation the delta state sync.
	if _, _, err := mod.CreatePackage("/apps/huge", gdn.Scenario{
		Protocol: gdn.ProtocolMasterSlave,
		Servers:  w.GOSAddrs("eu-nl-vu", "na-ca-ucb"),
	}, gdn.Package{Files: map[string][]byte{"dvd.iso": content}}); err != nil {
		t.Fatal(err)
	}

	// Download through a GDN HTTPD on a third continent.
	h, err := w.HTTPD("ap-au-mu", gdn.HTTPDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/pkg/apps/huge/-/dvd.iso")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-GDN-Digest"); got != fmt.Sprintf("%x", wantDigest) {
		t.Fatalf("advertised digest %s", got)
	}
	hash := sha256.New()
	n, err := io.Copy(hash, resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n != size {
		t.Fatalf("downloaded %d bytes, want %d", n, size)
	}
	var got [sha256.Size]byte
	hash.Sum(got[:0])
	if got != wantDigest {
		t.Fatal("downloaded content does not match the SHA-256 manifest")
	}

	// A direct client on a fourth site verifies through the stub's
	// streaming digest check as well.
	stub, _, err := w.BindPackage("na-ny-cu", "/apps/huge")
	if err != nil {
		t.Fatal(err)
	}
	defer stub.Close()
	if err := stub.VerifyFile("dvd.iso"); err != nil {
		t.Fatal(err)
	}

	// A curl -r-style range request travels HTTPD → replica → store and
	// returns exactly the asked-for bytes with the manifest digest as a
	// strong ETag.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/pkg/apps/huge/-/dvd.iso", nil)
	if err != nil {
		t.Fatal(err)
	}
	const rangeFrom, rangeTo = 40 << 20, 40<<20 + 999 // crosses no chunk boundary guarantees
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", rangeFrom, rangeTo))
	rresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range status %d, want 206", rresp.StatusCode)
	}
	if cr := rresp.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes %d-%d/%d", rangeFrom, rangeTo, size) {
		t.Fatalf("Content-Range = %q", cr)
	}
	part, err := io.ReadAll(rresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part, content[rangeFrom:rangeTo+1]) {
		t.Fatalf("range body mismatch (%d bytes)", len(part))
	}
	etag := rresp.Header.Get("ETag")
	if etag != fmt.Sprintf(`"%x"`, wantDigest) {
		t.Fatalf("ETag = %q, want the manifest digest", etag)
	}

	// The ETag round-trips: a conditional re-fetch is answered 304 with
	// no body.
	req2, err := http.NewRequest(http.MethodGet, ts.URL+"/pkg/apps/huge/-/dvd.iso", nil)
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("If-None-Match", etag)
	cresp, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	if cresp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional status %d, want 304", cresp.StatusCode)
	}

	// Re-deploying the unchanged 64 MiB package short-circuits: the
	// OpChunkHave negotiation names nothing missing and no chunk body
	// crosses the wire.
	state, chunks, err := pkgobj.Stage(map[string][]byte{"dvd.iso": content}, nil)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := pkgobj.StateRefs(state)
	if err != nil {
		t.Fatal(err)
	}
	cl := gos.NewClient(w.Net, "eu-de-tu", w.GOSAddrs("eu-nl-vu")[0], nil)
	defer cl.Close()
	stats, _, err := cl.PutChunks(chunks, refs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Offered == 0 {
		t.Fatal("re-deploy offered no refs; staging broke")
	}
	if stats.Sent != 0 || stats.SentBytes != 0 {
		t.Fatalf("re-deploy of unchanged content uploaded %d chunks (%d bytes); negotiation failed to short-circuit",
			stats.Sent, stats.SentBytes)
	}
}
