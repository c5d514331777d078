package pkgobj

import (
	"bytes"
	"runtime"
	"testing"
)

// maxDecodeAlloc bounds what decoding n bytes of state may allocate: a
// fixed allowance plus a multiple of the input, never a size a forged
// count or length field names.
func maxDecodeAlloc(n int) uint64 { return 256<<10 + 64*uint64(n) }

// FuzzStateDecode feeds arbitrary bytes to the state decoders an object
// server runs on moderator-supplied state (StateRefs before fetching
// chunks, UnmarshalState to install). They must fail cleanly, never
// panic, and allocate in proportion to the input however its count
// and length fields lie. The same bytes, taken as file contents, must
// stage into a state that UnmarshalState + MarshalState reproduce byte
// for byte once its chunk bodies are in the store. The committed
// corpus (testdata/fuzz/FuzzStateDecode) holds staged states and
// hostile encodings: truncations, forged counts, bad chunk sizes and
// paths.
func FuzzStateDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := New()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		refs, refsErr := StateRefs(data)
		installErr := p.UnmarshalState(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if installErr == nil && (refsErr != nil || len(refs) != 0) {
			t.Fatalf("installed into an empty store a state naming %d chunks (StateRefs: %v)", len(refs), refsErr)
		}

		// The input as a package: up to three files cut at its first
		// two zero bytes, with one meta entry.
		files := map[string][]byte{}
		rest := data
		for i := 0; i < 2; i++ {
			cut := bytes.IndexByte(rest, 0)
			if cut < 0 {
				break
			}
			files[string(rune('a'+i))] = rest[:cut]
			rest = rest[cut+1:]
		}
		files["z"] = rest
		state, chunks, err := Stage(files, map[string]string{"k": string(rest[:min(len(rest), 64)])})
		if err != nil {
			t.Fatal(err)
		}
		q := New()
		for _, body := range chunks {
			if _, err := q.Store().Put(body); err != nil {
				t.Fatal(err)
			}
		}
		if err := q.UnmarshalState(state); err != nil {
			t.Fatalf("staged state does not install: %v", err)
		}
		again, err := q.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, state) {
			t.Fatal("staged state does not round-trip byte for byte")
		}
	})
}
