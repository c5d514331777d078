package walog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Table is a durable string-keyed table on a Log: the one keyed-record
// policy of the object server's checkpoints and the naming authority's
// name table. Every Put and Delete is one appended frame, written and
// fsynced before the call returns; OpenTable replays the frames into a
// map, the last writer per key winning; and once the log outgrows
// twice its live size (and at least compactMin) it is rewritten from
// the live map. The first frame names the format and the caller's
// kind, so a file of any other format or kind fails the open and is
// left untouched. All methods are safe for concurrent use: appends and
// compaction are serialised inside the table.
type Table struct {
	mu   sync.Mutex
	log  *Log
	head []byte
	live map[string][]byte // key -> its latest put frame
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
// with the file unchanged. A torn tail is truncated as by Open.
func OpenTable(path, kind string) (*Table, error) {
	t := &Table{head: []byte(tableMagic + kind), live: make(map[string][]byte)}
	t.size = frameHeader + int64(len(t.head))
	sawHead := false
	lg, err := Open(path, func(p []byte) error {
		if !sawHead {
			sawHead = true
			if !bytes.Equal(p, t.head) {
				return fmt.Errorf("not a %q table (header %.40q)", kind, p)
			}
			return nil
		}
		return t.apply(bytes.Clone(p))
	})
	if err != nil {
		return nil, err
	}
	t.log = lg
	if !sawHead {
		lg.Append(t.head)
		if _, err := lg.Flush(); err != nil {
			lg.Close()
			return nil, err
		}
	}
	return t, nil
}

// apply folds one entry into the live map; p is retained.
func (t *Table) apply(p []byte) error {
	switch {
	case len(p) > 0 && p[0] == tablePut:
		n, w := binary.Uvarint(p[1:])
		if w <= 0 || n > uint64(len(p)-1-w) {
			return fmt.Errorf("walog: table put entry with a bad key length")
		}
		key := string(p[1+w : 1+w+int(n)])
		t.drop(key)
		t.live[key] = p
		t.size += frameHeader + int64(len(p))
	case len(p) > 0 && p[0] == tableDel:
		t.drop(string(p[1:]))
	default:
		return fmt.Errorf("walog: unknown table entry %.8q", p)
	}
	return nil
}

func (t *Table) drop(key string) {
	if f, ok := t.live[key]; ok {
		t.size -= frameHeader + int64(len(f))
		delete(t.live, key)
	}
}

// Put durably maps key to a copy of val before it returns.
func (t *Table) Put(key string, val []byte) error {
	p := make([]byte, 0, 1+binary.MaxVarintLen64+len(key)+len(val))
	p = append(p, tablePut)
	p = binary.AppendUvarint(p, uint64(len(key)))
	p = append(append(p, key...), val...)
	return t.write(p)
}

// Delete durably removes key before it returns. Deleting an absent key
// writes nothing.
func (t *Table) Delete(key string) error {
	return t.write(append([]byte{tableDel}, key...))
}

// write appends one entry, fsyncs it, applies it, and compacts the log
// when superseded frames dominate it. After a failed write the table
// refuses further writes; whether the failed entry survives a reopen
// is undetermined, as after any failed fsync.
func (t *Table) write(p []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if p[0] == tableDel {
		if _, ok := t.live[string(p[1:])]; !ok {
			return nil
		}
	}
	t.log.Append(p)
	if _, err := t.log.Flush(); err != nil {
		t.err = err
		return err
	}
	_ = t.apply(p) // p is a well-formed frame from Put or Delete
	if t.log.Size() > max(2*t.size, compactMin) {
		frames := make([][]byte, 0, 1+len(t.live))
		frames = append(frames, t.head)
		for _, f := range t.live {
			frames = append(frames, f)
		}
		// A failed rewrite leaves the old log in place; the next write
		// retries the compaction.
		_ = t.log.Rewrite(frames)
	}
	return nil
}

// Live returns a copy of the live map. The values are shared with the
// table and must not be modified.
func (t *Table) Live() map[string][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[string][]byte, len(t.live))
	for k, f := range t.live {
		_, w := binary.Uvarint(f[1:])
		m[k] = f[1+w+len(k):]
	}
	return m
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
	return t.log.Close()
}
