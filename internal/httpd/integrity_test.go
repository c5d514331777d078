package httpd_test

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"testing"

	"gdn"
	"gdn/internal/pkgobj"
	"gdn/internal/store"
)

// TestCacheEdgeNeverServesFailedBodyWhole: a caching edge whose cached
// chunk changed in memory after a verified download must not deliver
// the file as a complete 200 of the wrong bytes. A failure after some
// bytes leaves the body short of Content-Length; one before any byte
// is retried on a fresh fill, which the read's quarantine of the chunk
// makes fetch it again.
func TestCacheEdgeNeverServesFailedBodyWhole(t *testing.T) {
	_, h, ts := world(t, "na-ny-cu", gdn.HTTPDConfig{Caching: true, CacheParams: map[string]string{"ttl": "1h"}})
	tar := bytes.Repeat([]byte("pixel"), 100_000)
	url := ts.URL + "/pkg/apps/graphics/gimp/-/src/gimp.tar"
	if resp, body := get(t, url); resp.StatusCode != http.StatusOK || !bytes.Equal(body, tar) {
		t.Fatalf("clean download: %d with %d bytes", resp.StatusCode, len(body))
	}

	// The memory store hands out its own bytes: change the last one of
	// the file's second (last) chunk.
	data, err := h.Chunks().Get(store.RefOf(tar[pkgobj.DefaultChunkSize:]))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) || len(body) >= len(tar) {
		t.Fatalf("download of a changed cached chunk: status %d, %d of %d bytes, %v; want a short body", resp.StatusCode, len(body), len(tar), err)
	}
	if !bytes.Equal(body, tar[:len(body)]) {
		t.Fatal("the bytes that did flow are not the file's")
	}

	// A one-chunk file fails before its first byte. The failed read
	// quarantines the chunk, so the edge's retry refills it from the
	// object server and serves the file whole.
	readme := []byte("The GNU Image Manipulation Program")
	if data, err = h.Chunks().Get(store.RefOf(readme)); err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xFF
	before := h.Chunks().Stats()
	if resp, body := get(t, ts.URL+"/pkg/apps/graphics/gimp/-/README"); resp.StatusCode != http.StatusOK || !bytes.Equal(body, readme) {
		t.Fatalf("download of a changed one-chunk file: %d with %q, want 200 with the README", resp.StatusCode, body)
	}
	// The retry's rebind released the quarantined entry's last pin, so
	// the refill stored the chunk afresh rather than repairing it.
	if after := h.Chunks().Stats(); after.Quarantined != before.Quarantined+1 {
		t.Fatalf("quarantined %d → %d, want one more", before.Quarantined, after.Quarantined)
	}
	if !h.Chunks().Has(store.RefOf(readme)) || h.Chunks().Lost() != 0 {
		t.Fatalf("README chunk not healed: present %v, lost %d", h.Chunks().Has(store.RefOf(readme)), h.Chunks().Lost())
	}
	if got, err := h.Chunks().Get(store.RefOf(readme)); err != nil || !bytes.Equal(got, readme) {
		t.Fatalf("healed README chunk: %q, %v", got, err)
	}
}
