package gls

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gdn/internal/ids"
	"gdn/internal/walog"
	"gdn/internal/wire"
)

// A directory node with Config.StateDir keeps "persistent storage of
// the state of a directory node (location information and forwarding
// pointers)" (paper §7) in one walog.Table, <StateDir>/state.log —
// the same durable table the object server's checkpoints and the
// naming authority's names live in. The table stores state, not
// operations, one key per item:
//
//	'r' + object id   the record: its contact addresses, each with the
//	                  id of the session it rides, and its forwarding
//	                  pointers
//	's' + session id  the session: the server's address, its TTL and
//	                  its drain flag (one byte)
//
// Every entry rides a session, and a session's digest of its entries
// is derived at load.
//
// Every change marks its key dirty under the lock it already holds.
// Once a second the flusher collects the dirty keys stripe by stripe,
// encodes their current values (a key gone from memory becomes a
// delete) and writes them as one batch: one write, one fsync, no
// stripe lock held across it. Renewals that keep the TTL change no
// key, so steady heartbeats write nothing, and a package created and
// removed within one second costs no bytes at all.
//
// The crash-loss window is one flush interval. Loading follows the
// restart clock contract: sessions restart with their full TTL on the
// recovering node's clock, so a dead server's entries still age out
// within one TTL, and a session owner repairs whatever the window lost
// or kept beyond its books on its next renewal, whose answer carries
// the session's digest. An entry whose
// session is absent is dropped at load for the same reason.
const (
	stateFile  = "state.log"
	flushEvery = time.Second
)

// retiredStateFiles are the base snapshot and operation journal of
// the format the table replaced. A state directory still holding
// either fails the start, so their registrations are never silently
// dropped.
var retiredStateFiles = []string{"base.snap", "journal.log"}

// Key kinds of the state table.
const (
	keyRecord  = 'r'
	keySession = 's'
)

// persister is the node's durable state table and its flusher.
type persister struct {
	tab       *walog.Table
	flushMu   sync.Mutex // orders flushes: a key's values reach disk in the order they were taken
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

func oidKey(kind byte, oid ids.OID) string {
	b := oidKeyBytes(kind, oid)
	return string(b[:])
}

func oidKeyBytes(kind byte, oid ids.OID) [1 + ids.Size]byte {
	var b [1 + ids.Size]byte
	b[0] = kind
	copy(b[1:], oid[:])
	return b
}

// openState loads the node's state from StateDir and opens the table
// for the flusher. It runs before the node serves requests. A start it
// fails leaves every file in the directory as it was.
func openState(n *Node) error {
	dir := n.cfg.StateDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range retiredStateFiles {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return fmt.Errorf("gls: %s holds %s, a state format this version cannot read; move it aside to start empty (session owners re-attach on their next renewal)", dir, name)
		}
	}
	tab, err := walog.OpenTable(filepath.Join(dir, stateFile), "gdn-gls state "+n.cfg.Domain)
	if err != nil {
		return fmt.Errorf("gls: open state table: %w", err)
	}
	n.state = &persister{tab: tab}
	if err := n.loadState(tab.Live()); err != nil {
		n.state = nil
		tab.Close()
		return fmt.Errorf("gls: %s: %w", filepath.Join(dir, stateFile), err)
	}
	return nil
}

// loadState decodes the table's live keys — sessions first, then the
// records that reference them — into the node. Records that lost an
// entry to an absent session are marked dirty, so the next flush
// rewrites them. It runs before the node serves or flushes, so it
// fills the tables without their locks; a failed load discards the
// node.
func (n *Node) loadState(live map[string][]byte) error {
	now := n.cfg.Clock()
	sessions := make(map[ids.OID]*session)
	for key, v := range live {
		if key == "" {
			return fmt.Errorf("empty state key")
		}
		switch key[0] {
		case keySession:
			r := wire.NewReader(v)
			sess := &session{id: oidFromKey(key), addr: r.Str(), ttl: time.Duration(r.Uint32()) * time.Second}
			sess.drained.Store(r.Bool())
			if err := r.Done(); err != nil || len(key) != 1+ids.Size {
				return fmt.Errorf("bad session entry %x: %v", key, err)
			}
			sess.expiresNano.Store(now.Add(sess.ttl).UnixNano())
			sessions[sess.id] = sess
		case keyRecord:
		default:
			return fmt.Errorf("unknown state key %x", key)
		}
	}
	n.sessions = sessions
	records := 0
	for key, v := range live {
		if key[0] != keyRecord {
			continue
		}
		if len(key) != 1+ids.Size {
			return fmt.Errorf("bad record key %x", key)
		}
		oid := oidFromKey(key)
		rec, dropped, err := decodeRecord(v, oid, sessions)
		if err != nil {
			return fmt.Errorf("record %s: %w", oid.Short(), err)
		}
		sh := n.shard(oid)
		if dropped {
			n.markRecord(sh, oid)
		}
		if !rec.empty() {
			sh.recs[oid] = rec
			records++
		}
	}
	if len(live) > 0 {
		n.cfg.Logf("gls: %s: recovered %d records and %d sessions", n.cfg.Domain, records, len(sessions))
	}
	return nil
}

func oidFromKey(key string) ids.OID {
	var oid ids.OID
	copy(oid[:], key[1:])
	return oid
}

// encodeRecord writes a record's value in the state table to w.
func encodeRecord(w *wire.Writer, rec *record) {
	w.Count(len(rec.addrs))
	for _, la := range rec.addrs {
		la.ca.encode(w)
		w.OID(la.sess.id)
	}
	w.Count(len(rec.ptrs))
	for child, ref := range rec.ptrs {
		w.Str(child)
		ref.encode(w)
	}
}

// decodeRecord reverses encodeRecord for oid's record, attaching each
// entry to its session and adding it to the session's digest. An entry
// whose session is absent (or nil) is dropped, and dropped reports it.
func decodeRecord(v []byte, oid ids.OID, sessions map[ids.OID]*session) (rec *record, dropped bool, err error) {
	r := wire.NewReader(v)
	rec = &record{}
	for i, na := 0, r.Count(); i < na && r.Err() == nil; i++ {
		la := leasedAddr{ca: decodeContactAddress(r)}
		if la.sess = sessions[r.OID()]; la.sess == nil {
			dropped = true
			continue
		}
		rec.addrs = append(rec.addrs, la)
	}
	for i, np := 0, r.Count(); i < np && r.Err() == nil; i++ {
		if rec.ptrs == nil {
			rec.ptrs = make(map[string]Ref)
		}
		child := r.Str()
		rec.ptrs[child] = decodeRef(r)
	}
	if err := r.Done(); err != nil {
		return nil, false, err
	}
	for _, la := range rec.addrs {
		la.sess.digest.Add(entryHash(oid, la.ca))
	}
	return rec, dropped, nil
}

// markRecord and markSession note a changed key for the next flush;
// the caller holds the lock guarding the changed state (the stripe's
// and sessMu respectively). Without a state table they do nothing.
func (n *Node) markRecord(sh *recShard, oid ids.OID) {
	if n.state != nil {
		if sh.dirty == nil {
			sh.dirty = make(map[ids.OID]struct{})
		}
		sh.dirty[oid] = struct{}{}
	}
}

func (n *Node) markSession(sid ids.OID) {
	if n.state != nil {
		if n.sessDirty == nil {
			n.sessDirty = make(map[ids.OID]struct{})
		}
		n.sessDirty[sid] = struct{}{}
	}
}

// Flush writes the current value of every key changed since the last
// flush in one batch — one write and one fsync — and accounts the
// cost. The flusher calls it once a second and Close once more; tests
// call it to bound the loss window. A record or session created and
// removed within one flush costs nothing: the table never held its
// key, so there is no delete to write.
func (n *Node) Flush() error {
	if n.state == nil {
		return nil
	}
	n.state.flushMu.Lock()
	defer n.state.flushMu.Unlock()
	var b walog.Batch
	w := wire.NewWriter(256) // reused per key: Batch.Put copies the value
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		for oid := range sh.dirty {
			if rec := sh.recs[oid]; rec != nil {
				w.Reset()
				encodeRecord(w, rec)
				b.Put(oidKey(keyRecord, oid), w.Bytes())
			} else if k := oidKeyBytes(keyRecord, oid); n.state.tab.Has(k[:]) {
				b.Delete(string(k[:]))
			}
		}
		sh.dirty = nil
		sh.mu.Unlock()
	}
	n.sessMu.Lock()
	for sid := range n.sessDirty {
		if sess := n.sessions[sid]; sess != nil {
			w.Reset()
			w.Str(sess.addr)
			w.Uint32(uint32(sess.ttl / time.Second))
			w.Bool(sess.drained.Load())
			b.Put(oidKey(keySession, sid), w.Bytes())
		} else if k := oidKeyBytes(keySession, sid); n.state.tab.Has(k[:]) {
			b.Delete(string(k[:]))
		}
	}
	n.sessDirty = nil
	n.sessMu.Unlock()

	start := time.Now()
	nw, err := n.state.tab.Write(&b)
	if nw > 0 {
		mSnapshotAppendSeconds.ObserveSince(start)
		mLogBytesTotal.Add(int64(nw))
	}
	return err
}

func (n *Node) startFlusher() {
	p := n.state
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(flushEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				if err := n.Flush(); err != nil {
					n.cfg.Logf("gls: %s: state flush: %v", n.cfg.Domain, err)
				}
			}
		}
	}()
}

// closeState stops the flusher, flushes what remains and closes the
// table.
func (n *Node) closeState() error {
	p := n.state
	p.closeOnce.Do(func() {
		if p.stop != nil {
			close(p.stop)
			<-p.done
		}
		p.closeErr = n.Flush()
		if err := p.tab.Close(); p.closeErr == nil {
			p.closeErr = err
		}
	})
	return p.closeErr
}
