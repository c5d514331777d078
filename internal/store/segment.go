package store

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
)

// Disk layout: chunk bodies live in append-only segment files,
// <dir>/seg-NNNNNNNN, numbered in creation order. A segment is a run
// of records, each a fixed header followed by the chunk body:
//
//	ref [32]byte | size uint32 LE | CRC-32C of ref and size, uint32 LE | body
//
// Appends go to one active segment; it is sealed, with one fsync, when
// the next record would take it past segmentBytes, and a fresh one is
// created (with one directory fsync). Records are never rewritten. A
// released chunk only lowers its segment's live byte count; a sealed
// segment with no live bytes is unlinked, and one at most half live is
// compacted — its live records copied to the active segment — by a
// background goroutine, so no request waits on either.

const (
	// recHeader is the size of a record header.
	recHeader = 40
	// segmentBytes is the size at which the active segment is sealed.
	// A record larger than this gets a segment of its own.
	segmentBytes = 64 << 20
	// segPrefix starts every segment file name.
	segPrefix = "seg-"
)

// segment is one segment file.
type segment struct {
	id uint32
	f  *os.File

	// size is the end of the last whole record. It changes only under
	// Store.segMu, and only while the segment is not sealed.
	size   atomic.Int64
	sealed atomic.Bool
	// pending counts records appended but not yet indexed or given up
	// on; a segment with pending records is never reclaimed.
	pending atomic.Int32
	// live is the record bytes (headers included) of the records the
	// index points at, plus the pending ones.
	live atomic.Int64

	syncMu  sync.Mutex
	synced  int64 // every byte before it is durable
	syncErr error // sticky: a failed fsync may have dropped pages
}

// recordLen is the on-disk size of a record holding size body bytes.
func recordLen(size int64) int64 { return recHeader + size }

// reclaimable reports whether the segment may be unlinked or compacted.
func (seg *segment) reclaimable() bool {
	return seg.sealed.Load() && seg.pending.Load() == 0 && 2*seg.live.Load() <= seg.size.Load()
}

// putHeader encodes a record header into h.
func putHeader(h *[recHeader]byte, ref Ref, size int64) {
	copy(h[:32], ref[:])
	binary.LittleEndian.PutUint32(h[32:], uint32(size))
	binary.LittleEndian.PutUint32(h[36:], crc32.Checksum(h[:36], castagnoli))
}

// parseHeader decodes a record header, reporting false when its CRC
// does not match.
func parseHeader(h *[recHeader]byte) (ref Ref, size int64, ok bool) {
	if binary.LittleEndian.Uint32(h[36:]) != crc32.Checksum(h[:36], castagnoli) {
		return ref, 0, false
	}
	copy(ref[:], h[:32])
	return ref, int64(binary.LittleEndian.Uint32(h[32:])), true
}

// segName is the file name of segment id.
func segName(id uint32) string { return fmt.Sprintf("%s%08d", segPrefix, id) }

// parseSegName returns the id a segment file name carries.
func parseSegName(name string) (uint32, bool) {
	if len(name) != len(segPrefix)+8 || name[:len(segPrefix)] != segPrefix {
		return 0, false
	}
	id, err := strconv.ParseUint(name[len(segPrefix):], 10, 32)
	return uint32(id), err == nil
}

// isFanout reports whether name is a two-hex-digit chunk directory of
// the one-file-per-chunk layout this store replaced.
func isFanout(name string) bool {
	_, err := hex.DecodeString(name)
	return len(name) == 2 && err == nil
}

// load indexes every segment in the directory and reopens the newest
// as the active one. Records enter the table unreferenced; recovery
// retains the ones its manifests name and Sweep reclaims the rest.
// Nothing is changed on disk but the torn tail of the newest segment.
func (s *Store) load() error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var ids []uint32
	for _, d := range des {
		name := d.Name()
		if d.IsDir() && isFanout(name) {
			return fmt.Errorf("store: %s is a chunk directory of the one-file-per-chunk layout, which this store cannot read; move %s aside to start empty",
				filepath.Join(s.dir, name), s.dir)
		}
		if id, ok := parseSegName(name); ok && d.Type().IsRegular() {
			ids = append(ids, id) // ReadDir sorts by name: creation order
		}
	}
	s.nextID = 1
	for i, id := range ids {
		if err := s.loadSegment(id, i == len(ids)-1); err != nil {
			s.closeSegments()
			return err
		}
		s.nextID = id + 1
	}
	// Superseded copies may leave a sealed segment half dead. The
	// reclaimer starts only now, as it edits the index and the segment
	// table.
	for _, seg := range s.segs {
		s.reclaimIf(seg)
	}
	return nil
}

// loadSegment walks one segment's record headers, indexing each record
// without reading its body. A header that fails its CRC or a body that
// runs past the end of the file ends the records. In the newest
// segment that is the record a crash interrupted, never acknowledged:
// the torn tail is cut off and the segment takes appends again. Every
// older segment was made durable before the next one was created, so
// there it is damage, and Open fails naming the segment and offset,
// leaving the file as it is.
func (s *Store) loadSegment(id uint32, newest bool) error {
	name := filepath.Join(s.dir, segName(id))
	f, err := os.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	seg := &segment{id: id, f: f}
	s.segs[id] = seg
	end := info.Size()
	var h [recHeader]byte
	off := int64(0)
	for end-off >= recHeader {
		if _, err := f.ReadAt(h[:], off); err != nil {
			return err
		}
		ref, size, ok := parseHeader(&h)
		if !ok || size > end-off-recHeader {
			break
		}
		if err := s.indexRecord(ref, seg, off+recHeader, size); err != nil {
			return err
		}
		off += recordLen(size)
	}
	if off < end {
		if !newest {
			return fmt.Errorf("store: %s: no whole record at offset %d of %d, in a segment older than the newest; copy it aside and truncate it to %d bytes to start without the records from there on",
				name, off, end, off)
		}
		if err := f.Truncate(off); err != nil {
			return err
		}
	}
	seg.size.Store(off)
	seg.synced = off
	if newest {
		s.active = seg
	} else {
		seg.sealed.Store(true)
	}
	return nil
}

// indexRecord enters one record found by load. A later copy of an
// indexed chunk — a re-upload, or a compaction copy whose source a
// crash kept — supersedes it only if its body hashes to the ref: a
// crash may have torn the later copy after the earlier one was
// acknowledged. Only these duplicates have their bodies read.
func (s *Store) indexRecord(ref Ref, seg *segment, off, size int64) error {
	sh := s.shardOf(ref)
	e, ok := sh.chunks[ref]
	if !ok {
		seg.live.Add(recordLen(size))
		sh.chunks[ref] = &entry{size: size, seg: seg, off: off, elem: sh.cold.PushBack(coldRef{ref})}
		s.bytes.Add(size)
		return nil
	}
	data, release, err := readBody(seg, off, size)
	if err != nil {
		return err
	}
	whole := RefOf(data) == ref
	if release != nil {
		release()
	}
	if !whole {
		return nil
	}
	seg.live.Add(recordLen(size))
	e.seg.live.Add(-recordLen(e.size))
	s.bytes.Add(size - e.size)
	e.seg, e.off, e.size = seg, off, size
	return nil
}

// written is a record appended to a segment but not yet indexed.
type written struct {
	ref  Ref
	seg  *segment
	off  int64 // of the body
	size int64
}

// appendRecord writes one record at the end of the active segment,
// rolling to a fresh segment first when the record would overflow it.
// The record counts as live and pending until the caller commits or
// abandons it.
func (s *Store) appendRecord(ref Ref, data []byte) (written, error) {
	if int64(len(data)) > 1<<32-1 {
		return written{}, fmt.Errorf("store: chunk of %d bytes exceeds a record", len(data))
	}
	var h [recHeader]byte
	putHeader(&h, ref, int64(len(data)))
	n := recordLen(int64(len(data)))

	s.segMu.Lock()
	defer s.segMu.Unlock()
	seg := s.active
	if seg == nil || seg.sealed.Load() || seg.size.Load() > 0 && seg.size.Load()+n > segmentBytes {
		var err error
		if seg, err = s.newSegment(); err != nil {
			return written{}, err
		}
	}
	start := seg.size.Load()
	_, err := seg.f.WriteAt(h[:], start)
	if err == nil {
		_, err = seg.f.WriteAt(data, start+recHeader)
	}
	if err != nil {
		// Cut the partial record so no later record lands behind it; a
		// segment that cannot be cut takes no more records.
		if seg.f.Truncate(start) != nil {
			s.sealLocked(seg)
		}
		return written{}, err
	}
	seg.size.Store(start + n)
	seg.pending.Add(1)
	seg.live.Add(n)
	return written{ref: ref, seg: seg, off: start + recHeader, size: int64(len(data))}, nil
}

// newSegment seals the active segment and starts the next one, making
// its directory entry durable. The sealed segment is fsynced first, so
// only the newest segment can end in a torn record; if that fsync
// fails, its writers' fsyncs fail too and none of its unsynced records
// is acknowledged. Caller holds segMu.
func (s *Store) newSegment() (*segment, error) {
	if old := s.active; old != nil {
		_ = old.flush(old.size.Load())
		s.sealLocked(old)
	}
	name := filepath.Join(s.dir, segName(s.nextID))
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, err
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		os.Remove(name)
		return nil, err
	}
	seg := &segment{id: s.nextID, f: f}
	s.nextID++
	s.segs[seg.id] = seg
	s.active = seg
	return seg, nil
}

// sealLocked stops appends to seg. Caller holds segMu.
func (s *Store) sealLocked(seg *segment) {
	seg.sealed.Store(true)
	s.reclaimIf(seg)
}

// syncDir fsyncs a directory, so the entries created in it survive a
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

// flush makes every byte of seg before end durable. One fsync covers
// every record appended before it, whoever appended it, so a caller
// whose records an earlier fsync already covered skips its own.
func (seg *segment) flush(end int64) error {
	seg.syncMu.Lock()
	defer seg.syncMu.Unlock()
	if seg.synced >= end {
		return nil
	}
	if seg.syncErr == nil {
		n := seg.size.Load()
		if err := seg.f.Sync(); err != nil {
			seg.syncErr = err
		} else {
			seg.synced = n
		}
	}
	if seg.synced >= end {
		return nil
	}
	return seg.syncErr
}

// syncTo flushes seg up to end; a segment whose fsync failed takes no
// more records.
func (s *Store) syncTo(seg *segment, end int64) error {
	err := seg.flush(end)
	if err != nil {
		s.segMu.Lock()
		s.sealLocked(seg)
		s.segMu.Unlock()
	}
	return err
}

// commit makes recs durable, with one fsync per segment they landed
// in, then indexes them; pin takes a reference on each. On a failed
// fsync nothing is indexed.
func (s *Store) commit(recs []written, pin bool) error {
	if err := s.syncRecords(recs); err != nil {
		return err
	}
	for _, w := range recs {
		s.admit(w.ref, &entry{size: w.size, seg: w.seg, off: w.off}, pin)
		s.settle(w.seg)
	}
	return nil
}

// syncRecords makes recs durable, with one fsync per segment they
// landed in; on failure it abandons them all.
func (s *Store) syncRecords(recs []written) error {
	for i, w := range recs {
		// One writer's records ascend through the segments, so the last
		// one in each segment ends the span its fsync must cover.
		if i+1 < len(recs) && recs[i+1].seg == w.seg {
			continue
		}
		if err := s.syncTo(w.seg, w.off+w.size); err != nil {
			s.abandon(recs)
			return err
		}
	}
	return nil
}

// abandon gives up on records that will never be indexed.
func (s *Store) abandon(recs []written) {
	for _, w := range recs {
		w.seg.live.Add(-recordLen(w.size))
		s.settle(w.seg)
	}
}

// settle ends one pending record of seg.
func (s *Store) settle(seg *segment) {
	seg.pending.Add(-1)
	s.reclaimIf(seg)
}

// deadRecord accounts one record of seg the index no longer points at.
func (s *Store) deadRecord(seg *segment, size int64) {
	seg.live.Add(-recordLen(size))
	s.reclaimIf(seg)
}

// reclaimIf starts the background reclaimer when seg may need it. It
// makes no syscall, so release paths can call it under their locks.
func (s *Store) reclaimIf(seg *segment) {
	if !seg.reclaimable() || !s.reclaiming.CompareAndSwap(false, true) {
		return
	}
	s.reclaimMu.Lock()
	defer s.reclaimMu.Unlock()
	if s.closed.Load() {
		s.reclaiming.Store(false)
		return
	}
	s.reclaimWG.Add(1)
	go s.reclaim()
}

// reclaim unlinks dead segments and compacts half-dead ones, one at a
// time, until none is left. A failed compaction stops the loop; the
// next release that leaves a segment reclaimable starts it again.
func (s *Store) reclaim() {
	defer s.reclaimWG.Done()
	for {
		seg := s.nextReclaim()
		if seg == nil {
			s.reclaiming.Store(false)
			// A segment that became reclaimable after the scan found the
			// flag still set and started nobody: look once more.
			if s.nextReclaim() == nil || !s.reclaiming.CompareAndSwap(false, true) {
				return
			}
			continue
		}
		if err := s.compact(seg); err != nil {
			s.reclaiming.Store(false)
			return
		}
	}
}

// nextReclaim picks the reclaimable segment with the fewest live bytes.
func (s *Store) nextReclaim() *segment {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if s.closed.Load() {
		return nil
	}
	var pick *segment
	for _, seg := range s.segs {
		if seg.reclaimable() && (pick == nil || seg.live.Load() < pick.live.Load()) {
			pick = seg
		}
	}
	return pick
}

// compact copies seg's live records to the active segment, makes the
// copies durable, repoints the index at them and unlinks seg.
func (s *Store) compact(seg *segment) error {
	copies, froms, err := s.copyLive(seg)
	if err == nil {
		err = s.syncRecords(copies)
	}
	if err != nil {
		return err
	}
	for i, w := range copies {
		if !s.repoint(w.ref, at{seg: seg, off: froms[i]}, w) {
			w.seg.live.Add(-recordLen(w.size))
		}
		s.settle(w.seg)
	}
	if n := seg.live.Load(); n != 0 {
		return fmt.Errorf("store: %s still holds %d live bytes after compaction", segName(seg.id), n)
	}
	s.segMu.Lock()
	delete(s.segs, seg.id)
	if s.active == seg {
		s.active = nil
	}
	s.segMu.Unlock()
	err = os.Remove(filepath.Join(s.dir, segName(seg.id)))
	seg.f.Close()
	return err
}

// copyLive appends a copy of each record of seg the index points at to
// the active segment, verifying each on the way: a corrupt one is
// quarantined, not copied. It returns the copies and the body offsets
// they were copied from; on failure it abandons the copies.
func (s *Store) copyLive(seg *segment) (copies []written, froms []int64, err error) {
	end := seg.size.Load()
	var h [recHeader]byte
	for off := int64(0); off < end && seg.live.Load() > 0; {
		if _, err = seg.f.ReadAt(h[:], off); err != nil {
			break
		}
		ref, size, ok := parseHeader(&h)
		if !ok {
			err = fmt.Errorf("store: %s: bad record header at %d", segName(seg.id), off)
			break
		}
		body := off + recHeader
		off = body + size
		where := at{seg: seg, off: body}
		if !s.holds(ref, where) {
			continue
		}
		var data []byte
		var release func()
		if data, release, err = readBody(seg, body, size); err != nil {
			break
		}
		if RefOf(data) != ref {
			s.quarantine(ref, where, data)
		} else if w, aerr := s.appendRecord(ref, data); aerr != nil {
			err = aerr
		} else {
			copies = append(copies, w)
			froms = append(froms, body)
		}
		if release != nil {
			release()
		}
		if err != nil {
			break
		}
	}
	if err != nil {
		s.abandon(copies)
		return nil, nil, err
	}
	return copies, froms, nil
}

// holds reports whether the index points ref at where.
func (s *Store) holds(ref Ref, where at) bool {
	sh := s.shardOf(ref)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.chunks[ref]
	return ok && where.is(e)
}

// repoint moves ref's index entry from one record to its copy, if the
// entry still points at the original.
func (s *Store) repoint(ref Ref, from at, to written) bool {
	sh := s.shardOf(ref)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.chunks[ref]
	if !ok || !from.is(e) {
		return false
	}
	from.seg.live.Add(-recordLen(e.size))
	e.seg, e.off = to.seg, to.off
	return true
}

// readBody reads size body bytes at off into a pooled buffer when they
// fit one, returning the buffer's release (nil for an unpooled one).
func readBody(seg *segment, off, size int64) ([]byte, func(), error) {
	if size > chunkReadBuf {
		buf := make([]byte, size)
		if _, err := seg.f.ReadAt(buf, off); err != nil {
			return nil, nil, err
		}
		return buf, nil, nil
	}
	bp := readBufPool.Get().(*[]byte)
	buf := (*bp)[:size]
	if _, err := seg.f.ReadAt(buf, off); err != nil {
		readBufPool.Put(bp)
		return nil, nil, err
	}
	return buf, func() { readBufPool.Put(bp) }, nil
}

// errClosedSegment reports a read that raced its segment's unlink.
func errClosedSegment(err error) bool {
	return errors.Is(err, os.ErrClosed) || errors.Is(err, os.ErrNotExist)
}

// closeSegments closes every segment file.
func (s *Store) closeSegments() {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	for _, seg := range s.segs {
		seg.f.Close()
	}
}
