package gls

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gdn/internal/ids"
	"gdn/internal/netsim"
	"gdn/internal/walog"
	"gdn/internal/wire"
)

// soloConfig returns a fresh network and the config of one root
// directory node on it with incremental persistence in dir.
func soloConfig(dir string) (*netsim.Network, Config) {
	net := netsim.New(nil)
	net.AddSite("solo-site", "solo", "eu")
	addr := "solo-site:gls-solo-0"
	return net, Config{
		Domain:     "solo",
		Site:       "solo-site",
		Addr:       addr,
		Self:       Ref{Addrs: []string{addr}},
		Seed:       1,
		SweepEvery: -1,
		StateDir:   dir,
		FlushEvery: time.Hour, // flush by hand; no timing in tests
	}
}

// soloWorld starts the soloConfig node and returns it with a bound
// resolver. Restarting is Close + another soloWorld on the same dir.
func soloWorld(t *testing.T, dir string) (*netsim.Network, *Node, *Resolver) {
	t.Helper()
	net, cfg := soloConfig(dir)
	n, err := Start(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := NewResolver(net, "solo-site", cfg.Self)
	t.Cleanup(func() { res.Close() })
	return net, n, res
}

func TestJournalRestartRecoversRecordsAndSessions(t *testing.T) {
	dir := t.TempDir()
	_, n, res := soloWorld(t, dir)

	// A permanent record, a session, and entries attached to it.
	permOID, _, err := res.Insert(ids.Nil, testAddr("solo-site"))
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := res.OpenSession("solo-site:gos/obj", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var attached []ids.OID
	for i := 0; i < 3; i++ {
		oid, _, err := sess.Attach(ids.Nil, testAddr("solo-site"))
		if err != nil {
			t.Fatal(err)
		}
		attached = append(attached, oid)
	}
	if err := n.FlushJournal(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the same state directory on a fresh network.
	_, n2, res2 := soloWorld(t, dir)
	defer n2.Close()
	if got := n2.Records(); got != 4 {
		t.Fatalf("recovered %d records, want 4", got)
	}
	if _, _, err := res2.Lookup(permOID); err != nil {
		t.Fatalf("permanent record lost: %v", err)
	}
	for _, oid := range attached {
		if _, _, err := res2.Lookup(oid); err != nil {
			t.Fatalf("session entry %s lost: %v", oid.Short(), err)
		}
	}
	// The session survived the restart: the owner's next renewal must
	// succeed and agree on the attached count (no re-attach needed).
	sess2, _, err := res2.OpenSession("solo-site:gos/obj", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, oid := range attached {
		if _, _, err := sess2.Attach(oid, testAddr("solo-site")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess2.Renew(); err != nil {
		t.Fatalf("renew after restart: %v", err)
	}
	if got := n2.Records(); got != 4 {
		t.Fatalf("re-attach after restart duplicated records: %d", got)
	}
}

func TestJournalCrashMidAppendRecovers(t *testing.T) {
	dir := t.TempDir()
	_, n, res := soloWorld(t, dir)

	var oids []ids.OID
	for i := 0; i < 8; i++ {
		oid, _, err := res.Insert(ids.Nil, testAddr("solo-site"))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := n.FlushJournal(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	// kill -9 mid-append: the last journal write tore. Fake it by
	// appending a frame header that promises more bytes than follow.
	f, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var torn [11]byte
	binary.LittleEndian.PutUint32(torn[0:], 64) // length 64, only 3 payload bytes present
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, n2, res2 := soloWorld(t, dir)
	defer n2.Close()
	if got := n2.Records(); got != len(oids) {
		t.Fatalf("recovered %d records, want %d", got, len(oids))
	}
	for _, oid := range oids {
		if _, _, err := res2.Lookup(oid); err != nil {
			t.Fatalf("record %s lost to torn tail: %v", oid.Short(), err)
		}
	}
	// The recovered node keeps journaling: a new insert survives the
	// next restart, proving the log was re-opened writable at the
	// truncation point.
	fresh, _, err := res2.Insert(ids.Nil, testAddr("solo-site"))
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}
	_, n3, res3 := soloWorld(t, dir)
	defer n3.Close()
	if _, _, err := res3.Lookup(fresh); err != nil {
		t.Fatalf("post-recovery insert lost: %v", err)
	}
}

func TestJournalCompactionFoldsLog(t *testing.T) {
	dir := t.TempDir()
	_, n, res := soloWorld(t, dir)
	defer n.Close()

	for i := 0; i < 16; i++ {
		if _, _, err := res.Insert(ids.Nil, testAddr("solo-site")); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.FlushJournal(); err != nil {
		t.Fatal(err)
	}
	grown, err := os.Stat(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	base, err := os.Stat(filepath.Join(dir, "base.snap"))
	if err != nil {
		t.Fatalf("compaction wrote no base snapshot: %v", err)
	}
	if base.Size() == 0 {
		t.Fatal("empty base snapshot")
	}
	shrunk, err := os.Stat(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Size() >= grown.Size() {
		t.Fatalf("journal did not shrink: %d -> %d bytes", grown.Size(), shrunk.Size())
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	_, n2, _ := soloWorld(t, dir)
	defer n2.Close()
	if got := n2.Records(); got != 16 {
		t.Fatalf("recovered %d records after compaction, want 16", got)
	}
}

func TestJournalSteadyStateAppendsOnly(t *testing.T) {
	dir := t.TempDir()
	_, n, res := soloWorld(t, dir)
	defer n.Close()

	if _, _, err := res.Insert(ids.Nil, testAddr("solo-site")); err != nil {
		t.Fatal(err)
	}
	if err := n.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	baseBefore, err := os.ReadFile(filepath.Join(dir, "base.snap"))
	if err != nil {
		t.Fatal(err)
	}
	logBefore, err := os.Stat(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}

	// Steady-state traffic: inserts, a session heartbeat, a drain flip.
	sess, _, err := res.OpenSession("solo-site:gos/obj", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Attach(ids.Nil, testAddr("solo-site")); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Renew(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Drain(true); err != nil {
		t.Fatal(err)
	}
	if err := n.FlushJournal(); err != nil {
		t.Fatal(err)
	}

	baseAfter, err := os.ReadFile(filepath.Join(dir, "base.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseBefore, baseAfter) {
		t.Fatal("steady-state traffic rewrote the base snapshot")
	}
	logAfter, err := os.Stat(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if logAfter.Size() <= logBefore.Size() {
		t.Fatal("steady-state traffic did not append to the journal")
	}
}

// TestSnapshotV3DropsEntriesRacingTheSessionBlock checks the v3
// per-stripe consistency contract: an entry referencing a session the
// session block missed restores as dropped, not as an error.
func TestSnapshotV3DropsEntriesRacingTheSessionBlock(t *testing.T) {
	_, tree := deployWorld(t)
	leaf := tree.domains["eu/nl"].nodes[0]

	w := wire.NewWriter(256)
	w.Str("gls-snapshot/3")
	w.Str("eu/nl")
	w.Count(0)  // drained
	w.Count(0)  // sessions
	w.Uint32(1) // one shard group
	w.Count(1)  // one record
	w.OID(ids.New())
	w.Count(1)
	testAddr("eu-nl-vu").encode(w)
	w.Uint8(leaseSession)
	w.OID(ids.New()) // session unknown: the stripe writer raced it
	w.Count(0)
	if err := leaf.Restore(w.Bytes()); err != nil {
		t.Fatalf("v3 restore must tolerate a racing session reference: %v", err)
	}
	if got := leaf.Records(); got != 0 {
		t.Fatalf("dangling entry restored as %d records, want 0 (dropped)", got)
	}
}

// TestSnapshotRoundTripMatrix restores a snapshot of every kind of
// state a node holds — permanent and session-attached entries, a
// drained address — and re-snapshots it: every kind must survive two
// hops through the writer and the reader.
func TestSnapshotRoundTripMatrix(t *testing.T) {
	tree, _ := deployLeaseWorld(t)
	leaf := tree.domains["eu/nl"].nodes[0]
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	permOID, _, err := res.Insert(ids.Nil, testAddr("eu-de-tu"))
	if err != nil {
		t.Fatal(err)
	}
	sess, sessOID := attachOne(t, res, testAddr("eu-nl-vu"), 30*time.Second)
	if _, _, err := res.Insert(sessOID, testAddr("eu-de-tu")); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Drain(true); err != nil {
		t.Fatal(err)
	}

	for hop := 0; hop < 2; hop++ {
		if err := leaf.Restore(leaf.Snapshot()); err != nil {
			t.Fatalf("hop %d: restore: %v", hop, err)
		}
		if addrs, _, err := res.Lookup(permOID); err != nil || len(addrs) != 1 {
			t.Fatalf("hop %d: permanent record: %v (%d addrs)", hop, err, len(addrs))
		}
		addrs, _, err := res.Lookup(sessOID)
		if err != nil || len(addrs) != 1 || addrs[0] != testAddr("eu-de-tu") {
			t.Fatalf("hop %d: drained session entry not hidden: %v %v", hop, addrs, err)
		}
		if !leaf.Draining(sess.Addr()) || leaf.Sessions() != 1 {
			t.Fatalf("hop %d: draining=%v sessions=%d", hop, leaf.Draining(sess.Addr()), leaf.Sessions())
		}
	}
	// The restored session still counts its entry: a renewal needs no
	// repair.
	before := leaf.Stats()
	if _, err := sess.Renew(); err != nil {
		t.Fatal(err)
	}
	if got := leaf.Stats().Inserts - before.Inserts; got != 0 {
		t.Fatalf("renew after round trips re-attached %d entries, want 0", got)
	}
}

// TestRestoreRejectsRetiredFormats: the v1 layout (no magic, bare
// contact addresses), the v2 layout and a v3 image carrying a retired
// per-entry lease are refused with an error, and the node keeps its
// state.
func TestRestoreRejectsRetiredFormats(t *testing.T) {
	_, tree := deployWorld(t)
	leaf := tree.domains["eu/nl"].nodes[0]
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	oid, _, err := res.Insert(ids.Nil, testAddr("eu-nl-vu"))
	if err != nil {
		t.Fatal(err)
	}

	v1 := wire.NewWriter(256)
	v1.Str("eu/nl")
	v1.Count(1)
	v1.OID(ids.New())
	v1.Count(1)
	testAddr("eu-de-tu").encode(v1)
	v1.Count(0)

	v2 := wire.NewWriter(256)
	v2.Str(strings.TrimSuffix(snapshotMagic, "3") + "2") // the retired v2 magic
	v2.Str("eu/nl")
	v2.Count(0) // drained
	v2.Count(0) // sessions
	v2.Count(1) // flat record list
	v2.OID(ids.New())
	v2.Count(1)
	testAddr("eu-de-tu").encode(v2)
	v2.Uint8(leasePermanent)
	v2.Count(0)

	ownLease := wire.NewWriter(256)
	ownLease.Str(snapshotMagic)
	ownLease.Str("eu/nl")
	ownLease.Count(0)  // drained
	ownLease.Count(0)  // sessions
	ownLease.Uint32(1) // one record group
	ownLease.Count(1)
	ownLease.OID(ids.New())
	ownLease.Count(1)
	testAddr("eu-de-tu").encode(ownLease)
	ownLease.Uint8(1) // the retired per-entry lease kind
	ownLease.Uint32(30)
	ownLease.Count(0)

	for name, img := range map[string][]byte{"v1": v1.Bytes(), "v2": v2.Bytes(), "own-lease": ownLease.Bytes()} {
		if err := leaf.Restore(img); err == nil {
			t.Fatalf("%s image restored, want an error", name)
		}
		if got := leaf.Records(); got != 1 {
			t.Fatalf("%s: records after refused restore = %d, want 1", name, got)
		}
		if addrs, _, err := res.Lookup(oid); err != nil || len(addrs) != 1 {
			t.Fatalf("%s: lookup after refused restore: %v (%d addrs)", name, err, len(addrs))
		}
	}
}

// TestJournalRefusesRetiredFormat: a state directory whose journal
// carries the retired "gls-journal/1" header fails the node's start
// instead of being misparsed, and the file is left as it was.
func TestJournalRefusesRetiredFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.log")
	lg, err := walog.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	hdr := wire.NewWriter(32)
	hdr.Str("gls-journal/1")
	hdr.Uint64(0)
	lg.Append(hdr.Bytes())
	if _, err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if n, err := Start(soloConfig(dir)); err == nil {
		n.Close()
		t.Fatal("node started on a retired journal format")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("refused journal was modified")
	}
}
