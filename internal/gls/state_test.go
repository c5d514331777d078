package gls

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gdn/internal/ids"
	"gdn/internal/netsim"
	"gdn/internal/obs"
	"gdn/internal/transport"
	"gdn/internal/wire"
)

// soloConfig returns a fresh network and the config of one root
// directory node on it keeping its state in dir.
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
	}
}

// soloWorld starts the soloConfig node and returns it with a bound
// resolver. Restarting is Close + another soloWorld on the same dir.
func soloWorld(t testing.TB, dir string) (*netsim.Network, *Node, *Resolver) {
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

// restartNode closes the first subnode of a deployed domain and starts
// it again on dir as its state directory, replacing it in the tree:
// n.cfg.StateDir restarts it where it stopped, a saveState copy rolls
// it back, and an empty directory makes it forget everything. The
// parent's forwarding pointers stay as they were, as across a real
// restart.
func restartNode(t testing.TB, tree *Tree, domain, dir string) *Node {
	t.Helper()
	d := tree.domains[domain]
	if err := d.nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	cfg := d.nodes[0].cfg
	cfg.StateDir = dir
	n, err := Start(tree.net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.nodes[0] = n
	return n
}

// saveState flushes n and returns a copy of its state directory taken
// now: the rollback point for restartNode.
func saveState(t testing.TB, n *Node) string {
	t.Helper()
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(n.cfg.StateDir, stateFile))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, stateFile), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// checkSessions fails unless every entry at n rides a session n holds
// (or a closed one, whose entries the janitor reclaims) and every
// session's digest equals the one recomputed from the entries riding
// it.
func checkSessions(t testing.TB, n *Node) {
	t.Helper()
	riding := map[*session]uint64{}
	for _, sess := range n.sessions {
		riding[sess] = 0
	}
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.RLock()
		for oid, rec := range sh.recs {
			for _, la := range rec.addrs {
				if la.sess == nil || (n.sessions[la.sess.id] != la.sess && !la.sess.closed.Load()) {
					t.Fatalf("entry of %s rides a session the node does not hold", oid.Short())
				}
				riding[la.sess] += entryHash(oid, la.ca)
			}
		}
		sh.mu.RUnlock()
	}
	for sess, want := range riding {
		if got := sess.digest.Load(); got != want {
			t.Fatalf("session %s has digest %x, the entries riding it sum to %x", sess.id.Short(), got, want)
		}
	}
}

// frame is one walog frame around payload, for writing state files
// byte by byte.
func frame(payload []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// bigAddr is a contact address of about 240 KiB: a few of them churn a
// state table past its compaction threshold.
func bigAddr(site string) ContactAddress {
	pad := strings.Repeat("x", 60<<10)
	return ContactAddress{Protocol: pad, Address: site + ":big/" + pad, Impl: pad, Role: pad}
}

// compactState attaches five big entries through a session of their
// own, flushes, and detaches them and closes the session in one batch:
// the table's log then holds over a megabyte, most of it superseded,
// and compacts. It returns the state file's bytes right after the
// compaction.
func compactState(t *testing.T, n *Node, res *Resolver) []byte {
	t.Helper()
	ca := bigAddr("solo-site")
	sess := openTestSession(t, res, ca.Address, longTTL)
	var oids []ids.OID
	for i := 0; i < 5; i++ {
		oid, _, err := sess.Attach(ids.Nil, ca)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(n.cfg.StateDir, stateFile)
	grown, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	n.state.flushMu.Lock() // hold the flusher off: the deletes land in one batch
	for _, oid := range oids {
		if _, err := sess.Detach(oid); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	n.state.flushMu.Unlock()
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(b)) >= grown.Size() {
		t.Fatalf("the state table did not compact: %d -> %d bytes", grown.Size(), len(b))
	}
	return b
}

func TestJournalRestartRecoversRecordsAndSessions(t *testing.T) {
	dir := t.TempDir()
	net, n, res := soloWorld(t, dir)

	// A session, entries attached to it, a forwarding pointer and the
	// session's drain flag.
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
	ptrOID := ids.New()
	w := wire.NewWriter(64)
	w.OID(ptrOID)
	w.Str("solo/child")
	Ref{Addrs: []string{"solo-site:gls-child-0"}}.encode(w)
	if _, _, err := res.client(n.Addr()).Call(obs.SpanContext{}, OpInstallPtr, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Drain(true); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the same state directory.
	_, cfg := soloConfig(dir)
	n2, err := Start(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if got := n2.Records(); got != 4 {
		t.Fatalf("recovered %d records, want 4", got)
	}
	for _, oid := range attached {
		if _, _, err := res.Lookup(oid); err != nil {
			t.Fatalf("session entry %s lost: %v", oid.Short(), err)
		}
	}
	if ref := n2.shard(ptrOID).recs[ptrOID].ptrs["solo/child"]; len(ref.Addrs) != 1 {
		t.Fatalf("forwarding pointer lost: %v", ref)
	}
	if !n2.sessions[sess.ID()].drained.Load() {
		t.Fatal("session drain forgotten")
	}
	checkSessions(t, n2)
	// The session survived the restart: the owner's next renewal
	// agrees on the digest and re-attaches nothing.
	before := n2.Stats()
	if _, err := sess.Renew(); err != nil {
		t.Fatalf("renew after restart: %v", err)
	}
	if got := n2.Stats().Inserts - before.Inserts; got != 0 {
		t.Fatalf("renew after restart re-attached %d entries, want 0", got)
	}
}

func TestJournalCrashMidAppendRecovers(t *testing.T) {
	dir := t.TempDir()
	net, n, res := soloWorld(t, dir)
	sess := openTestSession(t, res, "solo-site:gos/obj", longTTL)

	var oids []ids.OID
	for i := 0; i < 8; i++ {
		oid, _, err := sess.Attach(ids.Nil, testAddr("solo-site"))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	// kill -9 mid-write: the last write tore. Fake it by appending a
	// frame header that promises more bytes than follow.
	path := filepath.Join(dir, stateFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 64, 1, 2, 3, 4, 'a', 'b', 'c'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, cfg := soloConfig(dir)
	n2, err := Start(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := n2.Records(); got != len(oids) {
		t.Fatalf("recovered %d records, want %d", got, len(oids))
	}
	for _, oid := range oids {
		if _, _, err := res.Lookup(oid); err != nil {
			t.Fatalf("record %s lost to torn tail: %v", oid.Short(), err)
		}
	}
	// The recovered node keeps writing: a new attach survives the next
	// restart, so the table was reopened writable at the torn tail.
	fresh, _, err := sess.Attach(ids.Nil, testAddr("solo-site"))
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}
	n3, err := Start(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n3.Close()
	if _, _, err := res.Lookup(fresh); err != nil {
		t.Fatalf("post-recovery insert lost: %v", err)
	}
}

// TestJournalCompactionFoldsLog: churn that supersedes a megabyte of
// state makes the table rewrite itself from its live keys, and a
// restart after the compaction recovers every record.
func TestJournalCompactionFoldsLog(t *testing.T) {
	dir := t.TempDir()
	net, n, res := soloWorld(t, dir)
	sess := openTestSession(t, res, "solo-site:gos/obj", longTTL)
	for i := 0; i < 16; i++ {
		if _, _, err := sess.Attach(ids.Nil, testAddr("solo-site")); err != nil {
			t.Fatal(err)
		}
	}
	if compacted := compactState(t, n, res); len(compacted) > 64<<10 {
		t.Fatalf("compacted state is %d bytes for 16 small records", len(compacted))
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	_, cfg := soloConfig(dir)
	n2, err := Start(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if got := n2.Records(); got != 16 {
		t.Fatalf("recovered %d records after compaction, want 16", got)
	}
}

// TestJournalSteadyStateAppendsOnly: heartbeats that keep the TTL write
// nothing — not a byte to gdn_gls_log_bytes_total, not a byte to the
// file — while a state change appends to the file without rewriting
// what is there.
func TestJournalSteadyStateAppendsOnly(t *testing.T) {
	dir := t.TempDir()
	_, n, res := soloWorld(t, dir)
	defer n.Close()
	path := filepath.Join(dir, stateFile)

	sess, _, err := res.OpenSession("solo-site:gos/obj", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Attach(ids.Nil, testAddr("solo-site")); err != nil {
		t.Fatal(err)
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	logBytes := mLogBytesTotal.Value()
	for i := 0; i < 5; i++ {
		if _, err := sess.Renew(); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := mLogBytesTotal.Value() - logBytes; got != 0 {
		t.Fatalf("renewals with an unchanged TTL wrote %d bytes", got)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("renewals with an unchanged TTL changed the state file")
	}

	if _, err := sess.Drain(true); err != nil {
		t.Fatal(err)
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) || !bytes.Equal(after[:len(before)], before) {
		t.Fatal("a drain flip did not append to the state file")
	}
}

// TestStateCrashPoints flushes one batch that attaches entries to a
// durable session, opens a session, attaches entries to it, installs a
// forwarding pointer and drains the new session, on a table that
// compacted just before. It cuts a copy of the state
// file at the compaction boundary and at every byte of that batch and
// restarts on each: every restart succeeds, no entry rides a session
// the node lacks, and one renewal round by the owners makes every
// registration acknowledged before the flush resolve again.
func TestStateCrashPoints(t *testing.T) {
	dir := t.TempDir()
	net, n, res := soloWorld(t, dir)
	old := openTestSession(t, res, "solo-site:gos/old", 30*time.Second)
	var oids []ids.OID
	for i := 0; i < 2; i++ {
		oid, _, err := old.Attach(ids.Nil, testAddr("solo-site"))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	compacted := compactState(t, n, res)

	// The batch: entries for the durable session, whose loss only its
	// digest reveals, and a fresh session with its own.
	for i := 0; i < 2; i++ {
		oid, _, err := old.Attach(ids.Nil, testAddr("solo-site"))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	fresh := openTestSession(t, res, "solo-site:gos/fresh", 30*time.Second)
	for i := 0; i < 4; i++ {
		oid, _, err := fresh.Attach(ids.Nil, ContactAddress{Protocol: "clientserver", Address: fresh.Addr(), Impl: "pkg/1"})
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	w := wire.NewWriter(64)
	w.OID(ids.New())
	w.Str("solo/child")
	Ref{Addrs: []string{"solo-site:gls-child-0"}}.encode(w)
	if _, _, err := res.client(n.Addr()).Call(obs.SpanContext{}, OpInstallPtr, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Drain(true); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := os.ReadFile(filepath.Join(dir, stateFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(final, compacted) {
		t.Fatal("the batch rewrote the compacted table instead of appending")
	}

	_, cfg := soloConfig("")
	for c := len(compacted); c <= len(final); c++ {
		cfg.StateDir = filepath.Join(t.TempDir(), "cut")
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cfg.StateDir, stateFile), final[:c], 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := Start(net, cfg)
		if err != nil {
			t.Fatalf("cut at byte %d: restart: %v", c, err)
		}
		checkSessions(t, n)
		if c == len(final) {
			if s := n.sessions[fresh.ID()]; s == nil || !s.drained.Load() || n.Sessions() != 2 {
				t.Fatalf("whole batch restarted without the drained session, or with %d sessions", n.Sessions())
			}
		}
		for _, s := range []*ServerSession{old, fresh} {
			if _, err := s.Renew(); err != nil {
				t.Fatalf("cut at byte %d: renew: %v", c, err)
			}
		}
		for _, oid := range oids {
			if _, _, err := res.Lookup(oid); err != nil {
				t.Fatalf("cut at byte %d: %s lost after a renewal round: %v", c, oid.Short(), err)
			}
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// dumpState renders a node's records and sessions as comparable
// strings.
func dumpState(n *Node) map[string]string {
	m := map[string]string{}
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.RLock()
		for oid, rec := range sh.recs {
			w := wire.NewWriter(64)
			encodeRecord(w, &record{addrs: rec.addrs})
			m["r"+oid.String()] = string(w.Bytes()) + fmt.Sprint(len(rec.ptrs))
		}
		sh.mu.RUnlock()
	}
	n.sessMu.RLock()
	for sid, sess := range n.sessions {
		m["s"+sid.String()] = fmt.Sprint(sess.addr, sess.ttl, sess.drained.Load())
	}
	n.sessMu.RUnlock()
	return m
}

// TestStateRefusesParentFormat: testdata/parent-state.log was written
// by the format before sessions carried their drain byte — session
// values without it and drained-address ('d') keys. A node refuses to
// start on it and leaves the file byte-identical, as it does for the
// retired snapshot and journal files.
func TestStateRefusesParentFormat(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "parent-state.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, stateFile), b, 0o644); err != nil {
		t.Fatal(err)
	}
	net, cfg := soloConfig(dir)
	refuseStart(t, net, cfg)
}

// TestStateFlushConcurrentWithChurn: servers attach, detach, change
// their TTL and flip their drain while flushes run, and a restart
// after Close recovers exactly the state the node held.
func TestStateFlushConcurrentWithChurn(t *testing.T) {
	dir := t.TempDir()
	net, n, res := soloWorld(t, dir)
	stop := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			default:
				if err := n.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		sess := openTestSession(t, res, fmt.Sprintf("solo-site:gos-%d", g), 30*time.Second)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var oids []ids.OID
			for i := 0; i < 40; i++ {
				oid, _, err := sess.Attach(ids.Nil, ContactAddress{Protocol: "clientserver", Address: sess.Addr(), Impl: "pkg/1"})
				if err != nil {
					t.Error(err)
					return
				}
				oids = append(oids, oid)
				if i%3 == 2 {
					if _, err := sess.Detach(oids[0]); err != nil {
						t.Error(err)
						return
					}
					oids = oids[1:]
				}
				if i%7 == 6 {
					if _, err := sess.Drain(i%2 == 0); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-flushed
	want := dumpState(n)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	_, cfg := soloConfig(dir)
	n2, err := Start(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if got := dumpState(n2); !maps.Equal(got, want) {
		t.Fatalf("restart recovered %d keys, the node held %d (or their values differ)", len(got), len(want))
	}
	checkSessions(t, n2)
}

// TestJournalRefusesRetiredFormat: a state directory holding the
// operation journal of the retired format fails the node's start, and
// the directory is left as it was.
func TestJournalRefusesRetiredFormat(t *testing.T) {
	dir := t.TempDir()
	hdr := wire.NewWriter(32)
	hdr.Str("gls-journal/2")
	hdr.Uint64(0)
	if err := os.WriteFile(filepath.Join(dir, "journal.log"), frame(hdr.Bytes()), 0o644); err != nil {
		t.Fatal(err)
	}
	net, cfg := soloConfig(dir)
	refuseStart(t, net, cfg)
}

// TestRestoreRejectsRetiredFormats: a state directory holding the base
// snapshot of the retired format, alone or beside its journal, fails
// the start, and the directory is left as it was.
func TestRestoreRejectsRetiredFormats(t *testing.T) {
	base := wire.NewWriter(64)
	base.Str("gls-base/1")
	base.Uint64(1)
	base.Str("gls-snapshot/3")
	base.Str("solo")
	for _, names := range [][]string{{"base.snap"}, {"base.snap", "journal.log"}} {
		dir := t.TempDir()
		for _, name := range names {
			if err := os.WriteFile(filepath.Join(dir, name), base.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		net, cfg := soloConfig(dir)
		refuseStart(t, net, cfg)
	}
}

// TestRestoreRejectsWrongDomain: a node started on another domain's
// state directory fails the start and leaves the state as it was.
func TestRestoreRejectsWrongDomain(t *testing.T) {
	_, tree := deployWorld(t)
	de := restartNode(t, tree, "eu/de", t.TempDir())
	attachOne(t, mustResolver(t, tree, "eu-de-tu", "eu/de"), ids.Nil, testAddr("eu-de-tu"), longTTL)
	cfg := tree.Nodes("eu/nl")[0].cfg
	cfg.Addr = "eu-nl-vu:gls-eu/nl-spare"
	cfg.StateDir = saveState(t, de)
	refuseStart(t, tree.net, cfg)
}

// refuseStart fails unless starting a node with cfg fails, leaving
// every file in its state directory byte-identical and adding none.
func refuseStart(t *testing.T, net transport.Network, cfg Config) {
	t.Helper()
	files := func() map[string]string {
		m := map[string]string{}
		ents, err := os.ReadDir(cfg.StateDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(cfg.StateDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			m[e.Name()] = string(b)
		}
		return m
	}
	before := files()
	if n, err := Start(net, cfg); err == nil {
		n.Close()
		t.Fatal("node started on a state directory it must refuse")
	}
	if !maps.Equal(files(), before) {
		t.Fatal("refused start changed the state directory")
	}
}

// TestSnapshotRoundTripMatrix restarts a node holding every kind of
// state — a drained and an undrained session and their entries — twice
// from its state directory: every kind must survive both hops.
func TestSnapshotRoundTripMatrix(t *testing.T) {
	tree, _ := deployLeaseWorld(t)
	leaf := restartNode(t, tree, "eu/nl", t.TempDir())
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	sess, sessOID := attachOne(t, res, ids.Nil, testAddr("eu-nl-vu"), 30*time.Second)
	healthy, _ := attachOne(t, res, sessOID, testAddr("eu-de-tu"), longTTL)
	if _, err := sess.Drain(true); err != nil {
		t.Fatal(err)
	}

	for hop := 0; hop < 2; hop++ {
		leaf = restartNode(t, tree, "eu/nl", leaf.cfg.StateDir)
		addrs, _, err := res.Lookup(sessOID)
		if err != nil || len(addrs) != 1 || addrs[0] != testAddr("eu-de-tu") {
			t.Fatalf("hop %d: drained session entry not hidden: %v %v", hop, addrs, err)
		}
		if !leaf.sessions[sess.ID()].drained.Load() || leaf.sessions[healthy.ID()].drained.Load() || leaf.Sessions() != 2 {
			t.Fatalf("hop %d: drain flags lost, or %d sessions", hop, leaf.Sessions())
		}
	}
	// The restarted session still counts its entry: a renewal needs no
	// repair.
	before := leaf.Stats()
	if _, err := sess.Renew(); err != nil {
		t.Fatal(err)
	}
	if got := leaf.Stats().Inserts - before.Inserts; got != 0 {
		t.Fatalf("renew after restarts re-attached %d entries, want 0", got)
	}
}

// TestFlushSkipsNeverStoredKeys: a record and a session created and
// removed within one flush leave only their dirty marks. The table
// never held their keys, so flushing them builds no deletes: it
// allocates no more than flushing nothing.
func TestFlushSkipsNeverStoredKeys(t *testing.T) {
	_, n, _ := soloWorld(t, t.TempDir())
	defer n.Close()
	oid, sid := ids.Derive("transient record"), ids.Derive("transient session")
	sh := n.shard(oid)
	mark := func() {
		sh.mu.Lock()
		n.markRecord(sh, oid)
		sh.mu.Unlock()
		n.sessMu.Lock()
		n.markSession(sid)
		n.sessMu.Unlock()
	}
	unmark := func() {
		sh.mu.Lock()
		sh.dirty = nil
		sh.mu.Unlock()
		n.sessMu.Lock()
		n.sessDirty = nil
		n.sessMu.Unlock()
	}
	flush := func() {
		if err := n.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	empty := testing.AllocsPerRun(50, func() { mark(); unmark(); flush() })
	transient := testing.AllocsPerRun(50, func() { mark(); flush() })
	if transient > empty {
		t.Fatalf("flushing a transient record and session: %v allocs, an empty flush %v", transient, empty)
	}
}
