package gls

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"gdn/internal/ids"
	"gdn/internal/netsim"
	"gdn/internal/rpc"
	"gdn/internal/wire"
)

// quickMinimize caps how many runs the fuzzer spends minimizing one
// input, unless -fuzzminimizetime was given. The fuzzer minimizes each
// input that finds new coverage before it fuzzes on, and it counts no
// progress meanwhile, so its progress line reads "execs: N (0/sec)".
// Minimizing costs a number of runs quadratic in the input's length;
// the inputs here are hundreds of bytes, each run stops the world twice
// to read the memory statistics, and coverage that differs between runs
// of one input (a latency histogram's bucket search, the last node's
// goroutines still exiting) leaves the minimizer no shorter input to
// keep. Under the default budget of 60 s, one input took a whole 10 s
// run.
func quickMinimize() {
	set := false
	flag.Visit(func(fl *flag.Flag) { set = set || fl.Name == "test.fuzzminimizetime" })
	if !set {
		flag.Set("test.fuzzminimizetime", "1000x")
	}
}

// FuzzNodeRestore feeds arbitrary bytes to a directory node as its
// state file. The start must not panic and must allocate in
// proportion to the input; it either fails with the file
// byte-identical, or starts a node whose every session counts exactly
// the entries riding it and none of whose entries rides a session it
// lacks. The committed corpus (testdata/fuzz/FuzzNodeRestore) holds a
// compacted state with one of everything a node persists — a drained
// session, entries attached to it and a forwarding pointer — the same
// state with a torn tail, and testdata/parent-state.log, a state of
// the format before sessions carried their drain flag, which the start
// refuses.
func FuzzNodeRestore(f *testing.F) {
	quickMinimize()
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

// FuzzNodeMessages feeds arbitrary request sequences to a solo root
// directory node through its handler. Each step is an op byte, a
// two-byte body length and the body. Op 0 instead advances the node's
// clock by the length in seconds and sweeps; lookups, which would
// descend to whatever a fuzzed forwarding pointer names, are skipped.
// No step may panic, the sequence must allocate in proportion to its
// length, and after every step each entry rides a session the node
// holds (or a closed one) and each session's digest equals the one
// recomputed from the entries riding it. The seeds open, insert,
// reattach in both modes, renew, delete, close and sweep.
func FuzzNodeMessages(f *testing.F) {
	quickMinimize()
	sid, oid, other := ids.OID{1}, ids.OID{2}, ids.OID{3}
	ca := testAddr("solo-site")
	step := func(op uint16, fill func(w *wire.Writer)) []byte {
		w := wire.NewWriter(128)
		fill(w)
		return append(binary.BigEndian.AppendUint16([]byte{byte(op)}, uint16(w.Len())), w.Bytes()...)
	}
	open := step(OpSessionOpen, func(w *wire.Writer) { w.OID(sid); w.Str(ca.Address); w.Uint32(10) })
	insert := step(OpInsert, func(w *wire.Writer) { w.OID(oid); ca.encode(w); w.OID(sid) })
	reattach := func(mode uint8) []byte {
		return step(OpSessionReattach, func(w *wire.Writer) {
			w.OID(sid)
			w.Str(ca.Address)
			w.Uint32(10)
			w.Bool(true)
			w.Uint8(mode)
			w.Count(2)
			w.OID(other)
			ca.encode(w)
			w.OID(oid)
			ContactAddress{Protocol: "clientserver", Address: ca.Address}.encode(w)
		})
	}
	renew := step(OpSessionRenew, func(w *wire.Writer) { w.OID(sid); w.Uint32(10); w.Bool(false) })
	del := step(OpDelete, func(w *wire.Writer) { w.OID(oid); w.Str(ca.Address) })
	closeSess := step(OpSessionClose, func(w *wire.Writer) { w.OID(sid) })
	sweep := []byte{0, 0, 11}
	f.Add(slices.Concat(open, insert, reattach(reattachAdd), renew, reattach(reattachReplace), del, renew))
	f.Add(slices.Concat(open, insert, closeSess, insert, open, insert, reattach(reattachReplace), sweep, renew))
	f.Add(slices.Concat(reattach(reattachAdd), sweep, reattach(reattachReplace), insert, del, closeSess, sweep))

	f.Fuzz(func(t *testing.T, data []byte) {
		net, cfg := soloConfig("")
		at := time.Unix(1_000_000_000, 0)
		cfg.Clock = func() time.Time { return at }
		n, err := Start(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for rest := data; len(rest) >= 3; {
			op, size := uint16(rest[0]), int(binary.BigEndian.Uint16(rest[1:3]))
			rest = rest[3:]
			if op == 0 {
				at = at.Add(time.Duration(size) * time.Second)
				n.SweepExpired()
				checkSessions(t, n)
				continue
			}
			body := rest[:min(size, len(rest))]
			rest = rest[len(body):]
			if op != OpLookup && op != OpLookupDown {
				n.handle(&rpc.Call{Op: op, Body: body})
				checkSessions(t, n)
			}
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10+256*uint64(len(data)) {
			t.Fatalf("%d bytes of requests allocated %d", len(data), got)
		}
	})
}
