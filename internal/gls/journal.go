package gls

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gdn/internal/ids"
	"gdn/internal/store"
	"gdn/internal/walog"
	"gdn/internal/wire"
)

// The journal replaces monolithic snapshotting as the node's
// persistence path. Layout on disk, under Config.StateDir:
//
//	base.snap    "gls-base/1" header + generation + a v3 Snapshot
//	journal.log  walog frames: a "gls-journal/2" header frame carrying
//	             the generation, then one frame per mutation
//
// Every mutation handler appends one entry after releasing its shard
// lock; the flusher writes and fsyncs the batch every FlushEvery —
// steady-state renewal and insert traffic therefore costs appends, not
// snapshot rewrites. When the log outgrows CompactBytes it is folded:
// a new base (generation+1) is written with the durable-write
// discipline, then the log is atomically rewritten to just a header
// with the new generation. Recovery applies log entries only when the
// log generation matches the base generation, so a crash between the
// two writes replays the old log against the old base or skips the
// stale log against the new base — never a mix. A torn final frame
// (kill -9 mid-append) is truncated by walog; everything before it
// replays.
//
// Replay follows the restore clock contract: session TTLs restart
// relative to the recovering node's clock, so a dead server's entries
// age out within one TTL of the restart, and session owners repair
// anything in the loss window (mutations since the last flush) through
// the renewal attached-count echo. A journal with another header magic
// (the retired "gls-journal/1", whose insert entries carried a
// per-entry TTL) is refused rather than misparsed.
const (
	baseMagic    = "gls-base/1"
	journalMagic = "gls-journal/2"
	baseFile     = "base.snap"
	journalFile  = "journal.log"
)

// Journal entry kinds, one per mutating op. Session expiry needs none:
// a replayed session re-expires against the restored clock on its own.
const (
	jInsert = uint8(iota + 1)
	jDelete
	jInstallPtr
	jRemovePtr
	jDrain
	jSessionOpen
	jSessionRenew
	jSessionClose
	jReattach
)

// Default persistence tuning when the Config leaves it zero.
const (
	defaultFlushEvery   = time.Second
	defaultCompactBytes = 8 << 20
)

// journal is the node's append-log persistence. mu serializes appends
// against compaction: an entry either lands in the log generation its
// mutation precedes, or waits for the new generation — whose base
// snapshot may already contain the mutation, which replay tolerates
// (every entry kind is idempotent).
type journal struct {
	n *Node

	mu  sync.Mutex
	log *walog.Log
	gen uint64

	flushEvery   time.Duration
	compactBytes int64

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

func (n *Node) basePath() string    { return filepath.Join(n.cfg.StateDir, baseFile) }
func (n *Node) journalPath() string { return filepath.Join(n.cfg.StateDir, journalFile) }

// openJournal recovers the node's state from StateDir (base snapshot,
// then matching-generation log entries) and opens the log for
// appending. It runs before the node serves requests.
func openJournal(n *Node) (*journal, error) {
	if err := os.MkdirAll(n.cfg.StateDir, 0o755); err != nil {
		return nil, err
	}
	baseGen := uint64(0)
	if b, err := os.ReadFile(n.basePath()); err == nil {
		r := wire.NewReader(b)
		if magic := r.Str(); r.Err() != nil || magic != baseMagic {
			return nil, fmt.Errorf("gls: %s: not a base snapshot (magic %q)", n.basePath(), magic)
		}
		baseGen = r.Uint64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if err := n.Restore(b[len(b)-r.Remaining():]); err != nil {
			return nil, fmt.Errorf("gls: restore %s: %w", n.basePath(), err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	j := &journal{
		n:            n,
		flushEvery:   n.cfg.FlushEvery,
		compactBytes: n.cfg.CompactBytes,
	}
	if j.flushEvery <= 0 {
		j.flushEvery = defaultFlushEvery
	}
	if j.compactBytes <= 0 {
		j.compactBytes = defaultCompactBytes
	}
	j.gen = baseGen
	sawHeader := false
	logGen := uint64(0)
	applied, skipped := 0, 0
	lg, err := walog.Open(n.journalPath(), func(p []byte) error {
		if !sawHeader {
			sawHeader = true
			r := wire.NewReader(p)
			if magic := r.Str(); r.Err() != nil || magic != journalMagic {
				return fmt.Errorf("bad journal header (magic %q)", magic)
			}
			logGen = r.Uint64()
			return r.Done()
		}
		if logGen != baseGen {
			// A crash between base write and log rewrite during
			// compaction: the log belongs to another generation, and its
			// entries are either folded into this base already (older) or
			// unreachable (no such case — the base is written first).
			skipped++
			return nil
		}
		applied++
		return n.applyLogEntry(p)
	})
	if err != nil {
		return nil, err
	}
	j.log = lg
	if skipped > 0 {
		n.cfg.Logf("gls: %s: skipped %d journal entries from generation %d (base is %d)",
			n.cfg.Domain, skipped, logGen, baseGen)
	}
	if applied > 0 {
		n.cfg.Logf("gls: %s: replayed %d journal entries onto base generation %d",
			n.cfg.Domain, applied, baseGen)
	}
	if !sawHeader {
		// Fresh (or fully truncated) log: stamp it with the current
		// generation. The header rides the first flush batch.
		lg.Append(journalHeader(baseGen))
	}
	return j, nil
}

func journalHeader(gen uint64) []byte {
	w := wire.NewWriter(32)
	w.Str(journalMagic)
	w.Uint64(gen)
	return w.Bytes()
}

func (j *journal) append(p []byte) {
	j.mu.Lock()
	j.log.Append(p)
	j.mu.Unlock()
}

// flush makes the buffered entries durable in one batched write+fsync
// and accounts the persistence cost.
func (j *journal) flush() error {
	start := time.Now()
	nw, err := j.log.Flush()
	if nw > 0 {
		mSnapshotAppendSeconds.ObserveSince(start)
		mLogBytesTotal.Add(int64(nw))
	}
	return err
}

// compact folds the journal into a fresh base snapshot. Appends block
// for the duration (they would be lost by the log rewrite otherwise);
// the snapshot itself holds only one record stripe at a time, so
// lookups and the read sides keep flowing.
func (j *journal) compact() error {
	start := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	gen := j.gen + 1
	w := wire.NewWriter(64)
	w.Str(baseMagic)
	w.Uint64(gen)
	img := append(w.Bytes(), j.n.Snapshot()...)
	if err := store.WriteFileSync(j.n.basePath(), img); err != nil {
		return fmt.Errorf("gls: write base snapshot: %w", err)
	}
	if err := j.log.Rewrite([][]byte{journalHeader(gen)}); err != nil {
		return fmt.Errorf("gls: reset journal: %w", err)
	}
	j.gen = gen
	mSnapshotCompactSeconds.ObserveSince(start)
	return nil
}

func (j *journal) startFlusher() {
	j.stop = make(chan struct{})
	j.done = make(chan struct{})
	go j.flushLoop()
}

func (j *journal) flushLoop() {
	defer close(j.done)
	t := time.NewTicker(j.flushEvery)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-t.C:
			if err := j.flush(); err != nil {
				j.n.cfg.Logf("gls: %s: journal flush: %v", j.n.cfg.Domain, err)
				continue
			}
			if j.log.Size() > j.compactBytes {
				if err := j.compact(); err != nil {
					j.n.cfg.Logf("gls: %s: journal compaction: %v", j.n.cfg.Domain, err)
				}
			}
		}
	}
}

// close stops the flusher, flushes what remains and closes the log.
func (j *journal) close() error {
	j.closeOnce.Do(func() {
		if j.stop != nil {
			close(j.stop)
			<-j.done
		}
		ferr := j.flush()
		cerr := j.log.Close()
		if ferr != nil {
			j.closeErr = ferr
		} else {
			j.closeErr = cerr
		}
	})
	return j.closeErr
}

// applyLogEntry replays one journal entry against the node's state.
// Every kind is idempotent, and entries referencing sessions the log's
// own later entries (or the base) no longer know are dropped — the
// owner re-attaches on its next renewal.
func (n *Node) applyLogEntry(p []byte) error {
	r := wire.NewReader(p)
	kind := r.Uint8()
	now := n.cfg.Clock()
	switch kind {
	case jInsert:
		oid := r.OID()
		ca := decodeContactAddress(r)
		sid := r.OID()
		if err := r.Done(); err != nil {
			return err
		}
		var sess *session
		if !sid.IsNil() {
			n.sessMu.RLock()
			sess = n.sessions[sid]
			n.sessMu.RUnlock()
			if sess == nil {
				return nil // session gone by end of log; entry is moot
			}
		}
		sh := n.shard(oid)
		sh.mu.Lock()
		rec := sh.recs[oid]
		if rec == nil {
			rec = &record{}
			sh.recs[oid] = rec
		}
		attachAddr(rec, ca, sess)
		sh.mu.Unlock()
	case jDelete:
		oid := r.OID()
		addr := r.Str()
		if err := r.Done(); err != nil {
			return err
		}
		sh := n.shard(oid)
		sh.mu.Lock()
		if rec := sh.recs[oid]; rec != nil {
			kept := rec.addrs[:0]
			for _, la := range rec.addrs {
				if la.ca.Address != addr {
					kept = append(kept, la)
				} else if la.sess != nil {
					la.sess.attached.Add(-1)
				}
			}
			rec.addrs = kept
			if rec.empty() {
				delete(sh.recs, oid)
			}
		}
		sh.mu.Unlock()
	case jInstallPtr:
		oid := r.OID()
		child := r.Str()
		ref := decodeRef(r)
		if err := r.Done(); err != nil {
			return err
		}
		sh := n.shard(oid)
		sh.mu.Lock()
		rec := sh.recs[oid]
		if rec == nil {
			rec = &record{}
			sh.recs[oid] = rec
		}
		if rec.ptrs == nil {
			rec.ptrs = make(map[string]Ref)
		}
		rec.ptrs[child] = ref
		sh.mu.Unlock()
	case jRemovePtr:
		oid := r.OID()
		child := r.Str()
		if err := r.Done(); err != nil {
			return err
		}
		sh := n.shard(oid)
		sh.mu.Lock()
		if rec := sh.recs[oid]; rec != nil && rec.ptrs != nil {
			delete(rec.ptrs, child)
			if rec.empty() {
				delete(sh.recs, oid)
			}
		}
		sh.mu.Unlock()
	case jDrain:
		addr := r.Str()
		draining := r.Bool()
		if err := r.Done(); err != nil {
			return err
		}
		n.applyDrain(addr, draining)
	case jSessionOpen:
		sid := r.OID()
		addr := r.Str()
		ttlSecs := r.Uint32()
		if err := r.Done(); err != nil {
			return err
		}
		n.applySessionOpen(sid, addr, time.Duration(ttlSecs)*time.Second, now)
	case jSessionRenew:
		sid := r.OID()
		ttlSecs := r.Uint32()
		if err := r.Done(); err != nil {
			return err
		}
		n.sessMu.RLock()
		sess := n.sessions[sid]
		n.sessMu.RUnlock()
		if sess != nil {
			sess.mu.Lock()
			if ttlSecs > 0 {
				sess.ttl = time.Duration(ttlSecs) * time.Second
			}
			ttl := sess.ttl
			sess.mu.Unlock()
			sess.expiresNano.Store(now.Add(ttl).UnixNano())
		}
	case jSessionClose:
		sid := r.OID()
		if err := r.Done(); err != nil {
			return err
		}
		n.sessMu.Lock()
		if sess := n.sessions[sid]; sess != nil {
			sess.closed.Store(true)
			delete(n.sessions, sid)
		}
		n.sessMu.Unlock()
	case jReattach:
		sid := r.OID()
		addr := r.Str()
		ttlSecs := r.Uint32()
		cnt := r.Count()
		if err := r.Err(); err != nil {
			return err
		}
		entries := make([]reattachEntry, 0, cnt)
		for i := 0; i < cnt; i++ {
			entries = append(entries, reattachEntry{oid: r.OID(), ca: decodeContactAddress(r)})
		}
		if err := r.Done(); err != nil {
			return err
		}
		sess := n.applySessionOpen(sid, addr, time.Duration(ttlSecs)*time.Second, now)
		n.attachBatch(entries, sess)
	default:
		return fmt.Errorf("gls: unknown journal entry kind %d", kind)
	}
	return nil
}

// The journal* methods encode one entry per mutation and hand it to
// the journal; they no-op on nodes running without a StateDir. They
// are called after the mutation's shard lock is released.

func (n *Node) journalInsert(oid ids.OID, ca ContactAddress, sid ids.OID) {
	if n.journal == nil {
		return
	}
	w := wire.NewWriter(96)
	w.Uint8(jInsert)
	w.OID(oid)
	ca.encode(w)
	w.OID(sid)
	n.journal.append(w.Bytes())
}

func (n *Node) journalDelete(oid ids.OID, addr string) {
	if n.journal == nil {
		return
	}
	w := wire.NewWriter(64)
	w.Uint8(jDelete)
	w.OID(oid)
	w.Str(addr)
	n.journal.append(w.Bytes())
}

func (n *Node) journalInstallPtr(oid ids.OID, child string, ref Ref) {
	if n.journal == nil {
		return
	}
	w := wire.NewWriter(96)
	w.Uint8(jInstallPtr)
	w.OID(oid)
	w.Str(child)
	ref.encode(w)
	n.journal.append(w.Bytes())
}

func (n *Node) journalRemovePtr(oid ids.OID, child string) {
	if n.journal == nil {
		return
	}
	w := wire.NewWriter(64)
	w.Uint8(jRemovePtr)
	w.OID(oid)
	w.Str(child)
	n.journal.append(w.Bytes())
}

func (n *Node) journalDrain(addr string, draining bool) {
	if n.journal == nil {
		return
	}
	w := wire.NewWriter(64)
	w.Uint8(jDrain)
	w.Str(addr)
	w.Bool(draining)
	n.journal.append(w.Bytes())
}

func (n *Node) journalSessionOpen(sid ids.OID, addr string, ttlSecs uint32) {
	if n.journal == nil {
		return
	}
	w := wire.NewWriter(64)
	w.Uint8(jSessionOpen)
	w.OID(sid)
	w.Str(addr)
	w.Uint32(ttlSecs)
	n.journal.append(w.Bytes())
}

func (n *Node) journalSessionRenew(sid ids.OID, ttlSecs uint32) {
	if n.journal == nil {
		return
	}
	w := wire.NewWriter(32)
	w.Uint8(jSessionRenew)
	w.OID(sid)
	w.Uint32(ttlSecs)
	n.journal.append(w.Bytes())
}

func (n *Node) journalSessionClose(sid ids.OID) {
	if n.journal == nil {
		return
	}
	w := wire.NewWriter(32)
	w.Uint8(jSessionClose)
	w.OID(sid)
	n.journal.append(w.Bytes())
}

func (n *Node) journalReattach(sid ids.OID, addr string, ttlSecs uint32, entries []reattachEntry) {
	if n.journal == nil {
		return
	}
	w := wire.NewWriter(64 + 64*len(entries))
	w.Uint8(jReattach)
	w.OID(sid)
	w.Str(addr)
	w.Uint32(ttlSecs)
	w.Count(len(entries))
	for _, e := range entries {
		w.OID(e.oid)
		e.ca.encode(w)
	}
	n.journal.append(w.Bytes())
}

// FlushJournal forces a journal flush now; the gdn-gls daemon calls it
// on shutdown paths, and tests use it to bound the loss window.
func (n *Node) FlushJournal() error {
	if n.journal == nil {
		return nil
	}
	return n.journal.flush()
}

// CompactJournal folds the journal into the base snapshot now,
// regardless of size. The daemon exposes it for operators; the flusher
// triggers it automatically past CompactBytes.
func (n *Node) CompactJournal() error {
	if n.journal == nil {
		return nil
	}
	return n.journal.compact()
}
