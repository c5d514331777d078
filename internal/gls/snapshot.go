package gls

import (
	"fmt"
	"time"

	"gdn/internal/ids"
	"gdn/internal/wire"
)

// The snapshot format ("gls-snapshot/3") carries the drain set, the
// registration sessions and the records grouped by record shard: the
// writer holds one stripe read lock at a time, so snapshotting a
// million-record node never freezes the whole table. The price is
// per-stripe (not whole-node) consistency — an entry can reference a
// session born after the session block was written. Restore drops
// such entries; the owner's next renewal notices the attached-count
// mismatch and re-attaches, the same self-healing that repairs a
// rollback to an old snapshot. Restore accepts this format only.
const snapshotMagic = "gls-snapshot/3"

// Liveness kinds of a snapshot entry. The values are on the wire; 1
// was the retired per-entry lease and is rejected.
const (
	leasePermanent = uint8(0) // no expiry
	leaseSession   = uint8(2) // attached to a session; its id follows
)

// Snapshot serializes the node's state for persistent storage. The
// paper's Java GLS supports "persistent storage of the state of a
// directory node (location information and forwarding pointers)" (§7);
// the gdn-gls daemon's journal folds it into its base file. Liveness
// state is part of the image: registration sessions with their
// remaining TTL (as seconds remaining, so the restored clock regime
// does not matter) and drain attribute, and the address drain set — a
// restored node can therefore never resurrect a dead server's replicas
// as permanent. Entries and sessions already expired at snapshot time
// are not encoded.
func (n *Node) Snapshot() []byte {
	now := n.cfg.Clock()
	w := wire.NewWriter(1024)
	w.Str(snapshotMagic)
	w.Str(n.cfg.Domain)

	n.drainMu.RLock()
	w.Count(len(n.drained))
	for addr := range n.drained {
		w.Str(addr)
	}
	n.drainMu.RUnlock()

	n.sessMu.RLock()
	live := make([]*session, 0, len(n.sessions))
	for _, sess := range n.sessions {
		if !sess.expired(now) {
			live = append(live, sess)
		}
	}
	w.Count(len(live))
	for _, sess := range live {
		addr, ttl := sess.fields()
		w.OID(sess.id)
		w.Str(addr)
		w.Uint32(wholeSeconds(ttl))
		w.Uint32(remainingSeconds(now, time.Unix(0, sess.expiresNano.Load())))
		w.Bool(sess.drained.Load())
	}
	n.sessMu.RUnlock()

	w.Uint32(recShards)
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.RLock()
		w.Count(len(sh.recs))
		for oid, rec := range sh.recs {
			w.OID(oid)
			kept := make([]leasedAddr, 0, len(rec.addrs))
			for _, la := range rec.addrs {
				if !la.expired(now) {
					kept = append(kept, la)
				}
			}
			w.Count(len(kept))
			for _, la := range kept {
				la.ca.encode(w)
				if la.sess != nil {
					w.Uint8(leaseSession)
					w.OID(la.sess.id)
				} else {
					w.Uint8(leasePermanent)
				}
			}
			w.Count(len(rec.ptrs))
			for child, ref := range rec.ptrs {
				w.Str(child)
				ref.encode(w)
			}
		}
		sh.mu.RUnlock()
	}
	return w.Bytes()
}

// wholeSeconds rounds a duration up to whole seconds for the wire.
func wholeSeconds(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	return uint32((d + time.Second - 1) / time.Second)
}

// remainingSeconds encodes a deadline as whole seconds left, at least
// one for a deadline still in the future.
func remainingSeconds(now, deadline time.Time) uint32 {
	return wholeSeconds(deadline.Sub(now))
}

// Restore replaces the node's state with a snapshot taken by Snapshot.
// The snapshot must come from a node serving the same domain. Session
// deadlines restart relative to the restoring node's clock: a session
// snapshot with five seconds left has five seconds to be renewed after
// the restore, and a dead server's entries age out within one TTL of
// the restart instead of living forever. The record groups carry their
// count on the wire, so the stripe constant can change without a
// format bump. Any other image — including the retired v1 and v2
// layouts — is rejected with the node's state untouched: decoding
// completes before anything is installed.
func (n *Node) Restore(b []byte) error {
	r := wire.NewReader(b)
	if magic := r.Str(); r.Err() == nil && magic != snapshotMagic {
		return fmt.Errorf("gls: not a %s image (magic %q)", snapshotMagic, magic)
	}
	domain := r.Str()
	if r.Err() != nil {
		return r.Err()
	}
	if domain != n.cfg.Domain {
		return fmt.Errorf("gls: snapshot is for domain %q, node serves %q", domain, n.cfg.Domain)
	}
	now := n.cfg.Clock()

	nd := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	drained := make(map[string]bool, nd)
	for i := 0; i < nd; i++ {
		drained[r.Str()] = true
	}

	ns := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	sessions := make(map[ids.OID]*session, ns)
	for i := 0; i < ns; i++ {
		sess := &session{id: r.OID()}
		sess.addr = r.Str()
		sess.ttl = time.Duration(r.Uint32()) * time.Second
		sess.expiresNano.Store(now.Add(time.Duration(r.Uint32()) * time.Second).UnixNano())
		sess.drained.Store(r.Bool())
		if r.Err() != nil {
			return r.Err()
		}
		sessions[sess.id] = sess
	}

	groups := int(r.Uint32())
	if r.Err() != nil {
		return r.Err()
	}
	if groups == 0 || groups > 1<<10 {
		return fmt.Errorf("gls: snapshot carries implausible shard count %d", groups)
	}
	recs := make(map[ids.OID]*record)
	for g := 0; g < groups; g++ {
		count := r.Count()
		if r.Err() != nil {
			return r.Err()
		}
		for i := 0; i < count; i++ {
			oid := r.OID()
			rec := &record{}
			na := r.Count()
			if r.Err() != nil {
				return r.Err()
			}
			for j := 0; j < na; j++ {
				la := leasedAddr{ca: decodeContactAddress(r)}
				switch kind := r.Uint8(); kind {
				case leasePermanent:
				case leaseSession:
					la.sess = sessions[r.OID()]
					if r.Err() == nil && la.sess == nil {
						// The session raced the shard-by-shard writer; drop
						// the entry and let its owner re-attach.
						continue
					}
				default:
					if r.Err() == nil {
						return fmt.Errorf("gls: snapshot entry has unknown liveness kind %d", kind)
					}
				}
				if r.Err() != nil {
					return r.Err()
				}
				if la.sess != nil {
					// Counts are recomputed from the entries themselves, so
					// the snapshot cannot carry a stale tally.
					la.sess.attached.Add(1)
				}
				rec.addrs = append(rec.addrs, la)
			}
			np := r.Count()
			if r.Err() != nil {
				return r.Err()
			}
			if np > 0 {
				rec.ptrs = make(map[string]Ref, np)
			}
			for j := 0; j < np; j++ {
				child := r.Str()
				rec.ptrs[child] = decodeRef(r)
			}
			if !rec.empty() {
				recs[oid] = rec
			}
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	n.installState(recs, drained, sessions)
	return nil
}

// installState swaps in a fully decoded state, distributing records
// over the shards. Each stripe is swapped under its own lock; Restore
// runs at boot (or between test phases), so the brief window where
// stripes mix old and new state has no observers that care.
func (n *Node) installState(recs map[ids.OID]*record, drained map[string]bool, sessions map[ids.OID]*session) {
	var byShard [recShards]map[ids.OID]*record
	for i := range byShard {
		byShard[i] = make(map[ids.OID]*record, len(recs)/recShards+1)
	}
	for oid, rec := range recs {
		byShard[int(oid[ids.Size-1])&(recShards-1)][oid] = rec
	}
	n.drainMu.Lock()
	n.drained = drained
	n.drainMu.Unlock()
	n.sessMu.Lock()
	n.sessions = sessions
	n.sessMu.Unlock()
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		sh.recs = byShard[i]
		sh.mu.Unlock()
	}
}
