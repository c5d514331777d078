package gls

import (
	"bytes"
	"testing"
	"time"

	"gdn/internal/ids"
	"gdn/internal/netsim"
	"gdn/internal/wire"
)

// fuzzOID returns a fixed identifier routed to record shard si.
func fuzzOID(name string, si int) ids.OID {
	oid := ids.Derive(name)
	oid[ids.Size-1] = byte(si)
	return oid
}

// fuzzSeedImage encodes a snapshot holding one of everything a
// directory node persists: a drained address, a session, an entry
// attached to it, a permanent entry and a forwarding pointer. Every map
// the writer walks holds at most one element, so Snapshot re-encodes
// the restored state byte for byte.
func fuzzSeedImage() []byte {
	sid := ids.Derive("fuzz-session")
	w := wire.NewWriter(512)
	w.Str(snapshotMagic)
	w.Str("eu/nl")
	w.Count(1) // drained addresses
	w.Str("eu-de-tu:gos/obj")
	w.Count(1) // sessions
	w.OID(sid)
	w.Str("eu-nl-vu:gos/obj")
	w.Uint32(30) // ttl seconds
	w.Uint32(30) // remaining seconds
	w.Bool(false)
	w.Uint32(recShards)
	for si := 0; si < recShards; si++ {
		switch si {
		case 1: // a permanent entry at the drained address
			w.Count(1)
			w.OID(fuzzOID("fuzz-permanent", si))
			w.Count(1)
			testAddr("eu-de-tu").encode(w)
			w.Uint8(leasePermanent)
			w.Count(0)
		case 2: // a session-attached entry
			w.Count(1)
			w.OID(fuzzOID("fuzz-attached", si))
			w.Count(1)
			testAddr("eu-nl-vu").encode(w)
			w.Uint8(leaseSession)
			w.OID(sid)
			w.Count(0)
		case 3: // a forwarding pointer to a child domain
			w.Count(1)
			w.OID(fuzzOID("fuzz-pointer", si))
			w.Count(0)
			w.Count(1)
			w.Str("eu/nl/vu")
			Ref{Addrs: []string{"eu-nl-vu:gls-eu/nl/vu-0"}}.encode(w)
		default:
			w.Count(0)
		}
	}
	return w.Bytes()
}

// FuzzNodeRestore feeds arbitrary bytes to Restore on a node that
// already holds state. Restore must never panic, and a failed Restore
// must leave the node as it was: the same record count and a
// byte-identical re-snapshot. The committed corpus
// (testdata/fuzz/FuzzNodeRestore) holds the seed image itself and an
// empty image with one trailing byte, which catches a Restore that
// installs state before it has finished decoding.
func FuzzNodeRestore(f *testing.F) {
	net := netsim.New(nil)
	net.AddSite("eu-nl-vu", "eu-nl", "eu")
	addr := "eu-nl-vu:gls-eu/nl-0"
	at := time.Unix(1_000_000_000, 0)
	n, err := Start(net, Config{
		Domain:     "eu/nl",
		Site:       "eu-nl-vu",
		Addr:       addr,
		Self:       Ref{Addrs: []string{addr}},
		Clock:      func() time.Time { return at },
		SweepEvery: -1,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { n.Close() })

	seed := fuzzSeedImage()
	if err := n.Restore(seed); err != nil {
		f.Fatal(err)
	}
	want := n.Snapshot()
	if !bytes.Equal(want, seed) {
		f.Fatal("seed state does not re-snapshot byte for byte")
	}
	wantRecords := n.Records()

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := n.Restore(data); err == nil {
			// A valid image replaced the state; put the seed state back.
			if err := n.Restore(seed); err != nil {
				t.Fatal(err)
			}
			return
		}
		if got := n.Records(); got != wantRecords {
			t.Fatalf("failed restore changed the record count: %d, want %d", got, wantRecords)
		}
		if got := n.Snapshot(); !bytes.Equal(got, want) {
			t.Fatal("failed restore changed the node's state")
		}
	})
}
