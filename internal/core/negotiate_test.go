package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"gdn/internal/store"
)

// FuzzDecodeRefs feeds arbitrary bytes and bounds to the ref-list
// decoder, which object servers and replicas run on every OpChunkHave
// and OpChunkGet request and uploaders on every answer. It must never
// panic, must allocate at most 32 bytes per input byte plus a constant
// however the count lies, must refuse a list longer than a positive
// max, and must decode only what EncodeRefs reproduces byte for byte.
// The seeds are an empty list, exactly ChunkHaveMaxRefs refs, one ref
// more, a truncated hash and a count larger than the body.
func FuzzDecodeRefs(f *testing.F) {
	refs := func(n int) []store.Ref {
		out := make([]store.Ref, n)
		for i := range out {
			binary.BigEndian.PutUint32(out[i][:], uint32(i))
		}
		return out
	}
	one := EncodeRefs(refs(1))
	f.Add(EncodeRefs(nil), uint16(ChunkHaveMaxRefs))
	f.Add(EncodeRefs(refs(ChunkHaveMaxRefs)), uint16(ChunkHaveMaxRefs))
	f.Add(EncodeRefs(refs(ChunkHaveMaxRefs+1)), uint16(ChunkHaveMaxRefs))
	f.Add(one[:len(one)-1], uint16(ChunkHaveMaxRefs))
	f.Add(binary.BigEndian.AppendUint32(nil, 5), uint16(0))
	f.Add(append(binary.BigEndian.AppendUint32(nil, 2), one[4:]...), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, max uint16) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := DecodeRefs(data, int(max))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10+32*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		if max > 0 && len(got) > int(max) {
			t.Fatalf("decoded %d refs past the %d bound", len(got), max)
		}
		if !bytes.Equal(EncodeRefs(got), data) {
			t.Fatalf("decoded %d refs that do not re-encode to the input", len(got))
		}
	})
}
