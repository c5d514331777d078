package gls

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"gdn/internal/netsim"
)

// FuzzNodeRestore feeds arbitrary bytes to a directory node as its
// state file. The start must not panic and must allocate in
// proportion to the input; it either fails with the file
// byte-identical, or starts a node whose every session counts exactly
// the entries riding it and none of whose entries rides a session it
// lacks. The committed corpus (testdata/fuzz/FuzzNodeRestore) holds a
// compacted state with one of everything a node persists — a drained
// session, entries attached to it and a forwarding pointer — the same
// state with a torn tail, and testdata/parent-state.log, a state of
// the format before sessions carried their drain flag.
func FuzzNodeRestore(f *testing.F) {
	net := netsim.New(nil)
	net.AddSite("solo-site", "solo", "eu")
	_, cfg := soloConfig(f.TempDir())
	at := time.Unix(1_000_000_000, 0)
	cfg.Clock = func() time.Time { return at }
	path := filepath.Join(cfg.StateDir, stateFile)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := Start(net, cfg)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10+64*uint64(len(data)) {
			t.Fatalf("starting on %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
				t.Fatal("failed start changed the state file")
			}
			return
		}
		defer n.Close()
		checkSessions(t, n)
	})
}
