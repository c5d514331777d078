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
// the file as a complete 200. A failure after some bytes leaves the
// body short of Content-Length; one before any byte answers 502.
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

	// A one-chunk file fails before its first byte.
	readme := []byte("The GNU Image Manipulation Program")
	if data, err = h.Chunks().Get(store.RefOf(readme)); err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xFF
	if resp, body := get(t, ts.URL+"/pkg/apps/graphics/gimp/-/README"); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("download of a changed one-chunk file: %d with %q, want 502", resp.StatusCode, body)
	}
}
