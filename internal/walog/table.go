package walog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sync"
)

// Table is a durable string-keyed table on a frame log: the one
// keyed-record policy of the directory nodes' state, the object
// server's checkpoints and the naming authority's name table. Every
// Write is one append of its batch's frames and one fsync before the
// call returns; OpenTable replays the frames into a map, the last
// writer per key winning; and once the log outgrows twice its live
// size (and at least compactMin) it is rewritten from the live map.
// The first frame names the format and the caller's kind, so a file of
// any other format or kind fails the open and is left untouched. All
// methods are safe for concurrent use: writes and compaction are
// serialised inside the table.
type Table struct {
	mu   sync.Mutex
	log  *frameLog
	head []byte
	live map[string][]byte // key -> its latest value
	size int64             // framed bytes of head and live: the compacted log's size
	err  error             // the first failed write, or errClosed; later writes return it
}

const (
	tableMagic = "walog-table/1\x00"
	tablePut   = 1 // put frame: kind, uvarint key length, key, value
	tableDel   = 2 // delete frame: kind, key

	// compactMin is the smallest log worth compacting.
	compactMin = 1 << 20
)

var errClosed = errors.New("walog: table closed")

// OpenTable replays the table at path (creating it if absent) and opens
// it for writes. kind names the caller's table and anything that must
// match across restarts; a file whose header differs fails the open
// with the file unchanged. A torn tail ends the replay and is cut off
// by the first write.
func OpenTable(path, kind string) (*Table, error) {
	t := &Table{head: []byte(tableMagic + kind), live: make(map[string][]byte)}
	t.size = frameHeader + int64(len(t.head))
	sawHead := false
	lg, err := openLog(path, func(p []byte) error {
		if !sawHead {
			sawHead = true
			if !bytes.Equal(p, t.head) {
				return fmt.Errorf("not a %q table (header %.40q)", kind, p)
			}
			return nil
		}
		_, err := t.apply(p)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.log = lg
	if !sawHead {
		lg.append(t.head)
		if _, err := lg.flush(); err != nil {
			lg.close()
			return nil, err
		}
	}
	return t, nil
}

// apply folds one entry into the live map, copying what it keeps of p,
// and reports whether it changed the table: a delete of an absent key
// does not.
func (t *Table) apply(p []byte) (bool, error) {
	switch {
	case len(p) > 0 && p[0] == tablePut:
		n, w := binary.Uvarint(p[1:])
		if w <= 0 || n > uint64(len(p)-1-w) {
			return false, fmt.Errorf("walog: table put entry with a bad key length")
		}
		key := string(p[1+w : 1+w+int(n)])
		t.drop(key)
		t.live[key] = bytes.Clone(p[1+w+int(n):])
		t.size += frameHeader + int64(len(p))
		return true, nil
	case len(p) > 0 && p[0] == tableDel:
		return t.drop(string(p[1:])), nil
	default:
		return false, fmt.Errorf("walog: unknown table entry %.8q", p)
	}
}

func (t *Table) drop(key string) bool {
	v, ok := t.live[key]
	if ok {
		var b [binary.MaxVarintLen64]byte
		t.size -= int64(frameHeader + 1 + binary.PutUvarint(b[:], uint64(len(key))) + len(key) + len(v))
		delete(t.live, key)
	}
	return ok
}

// putFrame is the put entry mapping key to val.
func putFrame(key string, val []byte) []byte {
	p := make([]byte, 0, 1+binary.MaxVarintLen64+len(key)+len(val))
	p = append(p, tablePut)
	p = binary.AppendUvarint(p, uint64(len(key)))
	return append(append(p, key...), val...)
}

// Batch is an ordered list of puts and deletes that one Write makes
// durable together. The zero Batch is empty and ready to use.
type Batch struct {
	frames [][]byte
}

// Put adds a mapping of key to a copy of val.
func (b *Batch) Put(key string, val []byte) {
	b.frames = append(b.frames, putFrame(key, val))
}

// Delete adds a removal of key.
func (b *Batch) Delete(key string) {
	b.frames = append(b.frames, append([]byte{tableDel}, key...))
}

// Put durably maps key to a copy of val before it returns.
func (t *Table) Put(key string, val []byte) error {
	var b Batch
	b.Put(key, val)
	_, err := t.Write(&b)
	return err
}

// Delete durably removes key before it returns. Deleting an absent key
// writes nothing.
func (t *Table) Delete(key string) error {
	var b Batch
	b.Delete(key)
	_, err := t.Write(&b)
	return err
}

// Write applies b in order and makes it durable in one append and one
// fsync before it returns, then compacts the log when superseded
// frames dominate it. A delete of a key absent at its turn writes
// nothing, and a batch that changes nothing touches no disk. Write
// returns the bytes appended. After a failed write the table refuses
// further writes; whether the failed batch survives a reopen, in whole
// or as a prefix, is undetermined, as after any failed fsync.
func (t *Table) Write(b *Batch) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return 0, t.err
	}
	for _, p := range b.frames {
		if changed, _ := t.apply(p); changed { // p is a well-formed frame from Put or Delete
			t.log.append(p)
		}
	}
	nw, err := t.log.flush()
	if err != nil {
		t.err = err
		return nw, err
	}
	if t.log.end > max(2*t.size, compactMin) {
		frames := make([][]byte, 0, 1+len(t.live))
		frames = append(frames, t.head)
		for k, v := range t.live {
			frames = append(frames, putFrame(k, v))
		}
		// A failed rewrite leaves the old log in place; the next write
		// retries the compaction.
		_ = t.log.rewrite(frames)
	}
	return nw, nil
}

// Has reports whether key is live. It does not allocate.
func (t *Table) Has(key []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.live[string(key)]
	return ok
}

// Live returns a copy of the live map. The values are shared with the
// table and must not be modified.
func (t *Table) Live() map[string][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return maps.Clone(t.live)
}

// Close closes the table's log; later writes fail. Closing twice is a
// no-op.
func (t *Table) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == errClosed {
		return nil
	}
	t.err = errClosed
	return t.log.close()
}
