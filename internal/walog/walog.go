// Package walog implements the framed append-only log underneath the
// incremental persistence paths, and the durable keyed Table built on
// it. It has two users: the GLS operation journal appends to a Log
// directly, and the GOS checkpoints and the GNS name table share one
// Table. Each entry is length-prefixed and CRC-protected, so a reader
// can stream a log back and stop cleanly at a torn tail — the frame a
// crash interrupted mid-write is detected by its checksum and
// truncated away, and everything before it replays intact. Appends are
// buffered in memory until Flush, which writes the pending frames in
// one syscall and fsyncs once. Compaction rewrites the log atomically
// (tmp + fsync + rename), the same durable-write discipline as
// store.WriteFileSync.
package walog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// frameHeader is [u32 payload length][u32 CRC-32 (IEEE) of payload].
const frameHeader = 8

// maxFrame bounds a single entry; a length field beyond it is treated
// as tail corruption, not an allocation request.
const maxFrame = 64 << 20

// Log is an append-only frame log on disk. All methods are safe for
// concurrent use.
type Log struct {
	mu   sync.Mutex
	path string
	f    *os.File
	buf  []byte // frames appended but not yet written
	size int64  // bytes durably on disk
}

// Open replays the log at path (creating it empty if absent), calling
// fn for each intact entry in append order, then opens it for further
// appends. A torn or corrupt tail — the mark of a crash mid-append —
// is truncated away; entries before it are delivered normally. The
// payload passed to fn is only valid during the call.
func Open(path string, fn func(payload []byte) error) (*Log, error) {
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
	if int64(len(b)) > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("walog: truncate torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{path: path, f: f, size: good}, nil
}

// Append buffers one entry. It does not touch the disk; call Flush to
// make buffered entries durable in one batched write+fsync.
func (l *Log) Append(payload []byte) {
	l.mu.Lock()
	l.buf = appendFrame(l.buf, payload)
	l.mu.Unlock()
}

func appendFrame(b, payload []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// Flush writes every buffered entry and fsyncs. It returns the number
// of bytes written this flush (zero when nothing was pending).
func (l *Log) Flush() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *Log) flushLocked() (int, error) {
	if len(l.buf) == 0 {
		return 0, nil
	}
	nw, err := l.f.Write(l.buf)
	if err != nil {
		// A short write leaves a torn tail; the next Open truncates it.
		l.buf = l.buf[nw:]
		return nw, fmt.Errorf("walog: append to %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return nw, fmt.Errorf("walog: fsync %s: %w", l.path, err)
	}
	l.size += int64(nw)
	l.buf = l.buf[:0]
	return nw, nil
}

// Size returns the durable length of the log in bytes (buffered
// entries not yet flushed are excluded).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Rewrite atomically replaces the log's contents with the given
// entries — the compaction primitive. The replacement is built in a
// temporary file, fsynced, and renamed over the log; a crash at any
// point leaves either the old log or the new one, never a mix.
// Buffered entries not yet flushed are discarded: the caller folds the
// state they described into the replacement entries.
func (l *Log) Rewrite(payloads [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
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
	l.size = int64(len(out))
	l.buf = l.buf[:0]
	return nil
}

// Close flushes buffered entries and closes the file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ferr := l.flushLocked()
	return errors.Join(ferr, l.f.Close())
}
