package gos

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// maxDecodeAlloc bounds what decoding n bytes may allocate: a fixed
// allowance plus a multiple of the input, never a size a forged count
// or length field names. The multiple covers a peer list, whose count
// (at most the bytes left) sizes a slice of 64-byte contact addresses.
func maxDecodeAlloc(n int) uint64 { return 256<<10 + 128*uint64(n) }

// FuzzDecodeSpec feeds arbitrary bytes to the two replica-spec decoders
// an object server runs on bytes from outside the process:
// decodeCreateRequest on a moderator's create command and
// decodeCheckpoint on each value of its checkpoint table at start.
// Neither may panic or allocate beyond maxDecodeAlloc, and a create
// request that decodes must survive Encode and decode unchanged. The
// committed corpus (testdata/fuzz/FuzzDecodeSpec) holds encoded
// requests and checkpoints, truncations and forged counts and lengths.
func FuzzDecodeSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = decodeCheckpoint(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes of checkpoint allocated %d", len(data), got)
		}

		runtime.ReadMemStats(&before)
		req, err := decodeCreateRequest(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes of create request allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		enc := req.Encode()
		again, err := decodeCreateRequest(enc)
		if err != nil {
			t.Fatalf("an encoded request does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip changed the request:\n%+v\n%+v", req, again)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("re-encoding a decoded request changed its bytes")
		}
	})
}
