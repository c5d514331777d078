// Package walog implements the durable keyed Table that the GLS
// directory nodes, the GOS checkpoints and the GNS name table persist
// through, on a framed append-only log. Each log entry is
// length-prefixed and CRC-protected, so a reader can stream a log back
// and stop cleanly at a torn tail — the frame a crash interrupted
// mid-write is detected by its checksum, and everything before it
// replays intact; the tail is cut off before the next write. Appends
// are buffered in memory until flush, which writes the pending frames
// in one syscall and fsyncs once. Compaction rewrites the log
// atomically: a temporary file, fsync, rename, then an fsync of the
// directory.
package walog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// frameHeader is [u32 payload length][u32 CRC-32 (IEEE) of payload].
const frameHeader = 8

// maxFrame bounds a single entry; a length field beyond it is treated
// as tail corruption, not an allocation request.
const maxFrame = 64 << 20

// frameLog is an append-only frame log on disk. It is not safe for
// concurrent use: the Table serialises its calls.
type frameLog struct {
	path string
	f    *os.File
	buf  []byte // frames appended but not yet written
	end  int64  // bytes durably on disk
	torn bool   // bytes past end remain from a torn tail
}

// openLog replays the log at path (creating it empty if absent),
// calling fn for each intact entry in append order, then opens it for
// further appends. A torn or corrupt tail — the mark of a crash
// mid-append — ends the replay; it stays on disk until the first
// flush cuts it off, so a caller that rejects the replayed state
// leaves the file as it found it. The payload passed to fn is only
// valid during the call.
func openLog(path string, fn func(payload []byte) error) (*frameLog, error) {
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("walog: read %s: %w", path, err)
	}
	good := int64(0)
	for off := 0; off+frameHeader <= len(b); {
		ln := binary.BigEndian.Uint32(b[off:])
		sum := binary.BigEndian.Uint32(b[off+4:])
		end := off + frameHeader + int(ln)
		if ln > maxFrame || end > len(b) {
			break // torn tail: length written, payload not (fully)
		}
		payload := b[off+frameHeader : end]
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt tail: payload half-written
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return nil, fmt.Errorf("walog: replay %s: %w", path, err)
			}
		}
		off = end
		good = int64(off)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &frameLog{path: path, f: f, end: good, torn: int64(len(b)) > good}, nil
}

// append buffers one entry. It does not touch the disk; flush makes
// buffered entries durable in one batched write+fsync.
func (l *frameLog) append(payload []byte) {
	l.buf = appendFrame(l.buf, payload)
}

func appendFrame(b, payload []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// flush writes every buffered entry and fsyncs. It returns the number
// of bytes written (zero when nothing was pending).
func (l *frameLog) flush() (int, error) {
	if len(l.buf) == 0 {
		return 0, nil
	}
	if l.torn {
		if err := l.f.Truncate(l.end); err != nil {
			return 0, fmt.Errorf("walog: truncate torn tail of %s: %w", l.path, err)
		}
		l.torn = false
	}
	nw, err := l.f.Write(l.buf)
	if err != nil {
		// A short write leaves a torn tail; the next open stops at it.
		l.buf = l.buf[nw:]
		return nw, fmt.Errorf("walog: append to %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return nw, fmt.Errorf("walog: fsync %s: %w", l.path, err)
	}
	l.end += int64(nw)
	l.buf = nil // a batch's buffer is not kept for the next one
	return nw, nil
}

// rewrite atomically replaces the log's contents with the given
// entries — the compaction primitive. The replacement is built in a
// temporary file, fsynced, and renamed over the log; a crash at any
// point leaves either the old log or the new one, never a mix.
// Buffered entries not yet flushed are discarded: the caller folds the
// state they described into the replacement entries.
func (l *frameLog) rewrite(payloads [][]byte) error {
	tmp := l.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var out []byte
	for _, p := range payloads {
		out = appendFrame(out, p)
	}
	_, err = nf.Write(out)
	if err == nil {
		err = nf.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("walog: rewrite %s: %w", l.path, err)
	}
	// Make the rename durable before retiring the old file handle. The
	// new handle's offset is already at its end.
	if dir, err := os.Open(filepath.Dir(l.path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	l.f.Close()
	l.f = nf
	l.end = int64(len(out))
	l.torn = false
	l.buf = l.buf[:0]
	return nil
}

// close flushes buffered entries and closes the file.
func (l *frameLog) close() error {
	_, ferr := l.flush()
	return errors.Join(ferr, l.f.Close())
}
