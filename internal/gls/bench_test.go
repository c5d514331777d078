package gls

import (
	"os"
	"runtime"
	"testing"

	"gdn/internal/ids"
	"gdn/internal/obs"
	"gdn/internal/wire"
)

// BenchmarkNodeAttach attaches 50,000 entries to one session at a
// directory node, in batched OpSessionReattach calls of 1,000, with and
// without a state directory. Beside the time it reports the node's
// live heap per attached entry after a flush and two collections: the
// price of holding a registration, in memory and on the way to disk.
func BenchmarkNodeAttach(b *testing.B) {
	const entries, batch = 50_000, 1_000
	for _, bc := range []struct {
		name    string
		persist bool
	}{{"memory", false}, {"statedir", true}} {
		b.Run(bc.name, func(b *testing.B) {
			var perEntry float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := ""
				if bc.persist {
					dir = b.TempDir()
				}
				_, n, res := soloWorld(b, dir)
				c := res.client(n.Addr())
				sid := ids.New()
				bodies := make([][]byte, 0, entries/batch)
				for k := 0; k < entries; k += batch {
					w := wire.NewWriter(64 + 80*batch)
					w.OID(sid)
					w.Str("solo-site:gos/obj")
					w.Uint32(30)
					w.Bool(false) // not draining
					w.Uint8(reattachAdd)
					w.Count(batch)
					for j := 0; j < batch; j++ {
						w.OID(ids.New())
						testAddr("solo-site").encode(w)
					}
					bodies = append(bodies, w.Bytes())
				}
				base := liveHeap()
				b.StartTimer()
				for _, body := range bodies {
					if _, _, err := c.Call(obs.SpanContext{}, OpSessionReattach, body); err != nil {
						b.Fatal(err)
					}
				}
				if err := n.Flush(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				perEntry = float64(liveHeap()-base) / entries
				runtime.KeepAlive(bodies)
				if got := n.Records(); got != entries {
					b.Fatalf("node holds %d records, want %d", got, entries)
				}
				n.Close()
				os.RemoveAll(dir)
			}
			b.ReportMetric(perEntry, "heapB/entry")
		})
	}
}

// liveHeap returns the heap bytes still reachable after two
// collections.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
