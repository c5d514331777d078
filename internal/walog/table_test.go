package walog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// liveStrings returns a table's live map with string values, for
// comparisons.
func liveStrings(tab *Table) map[string]string {
	m := make(map[string]string)
	for k, v := range tab.Live() {
		m[k] = string(v)
	}
	return m
}

// summary summarises a state as key=value-length pairs, sorted, for
// failure messages that must not print large values.
func summary(m map[string]string) string {
	var out []string
	for k, v := range m {
		out = append(out, fmt.Sprintf("%s=%d", k, len(v)))
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// tableOp is one Put (del false) or Delete.
type tableOp struct {
	key, val string
	del      bool
}

// runOps applies ops to a table at path and returns the durable log
// size and the expected state after each op; index 0 is the fresh
// table.
func runOps(t testing.TB, path, kind string, ops []tableOp) ([]int64, []map[string]string) {
	t.Helper()
	tab, err := OpenTable(path, kind)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	state := map[string]string{}
	sizes := []int64{tab.log.end}
	states := []map[string]string{maps.Clone(state)}
	for _, op := range ops {
		if op.del {
			err = tab.Delete(op.key)
			delete(state, op.key)
		} else {
			err = tab.Put(op.key, []byte(op.val))
			state[op.key] = op.val
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, tab.log.end)
		states = append(states, maps.Clone(state))
	}
	if got := liveStrings(tab); !maps.Equal(got, state) {
		t.Fatalf("live map = [%s], want [%s]", summary(got), summary(state))
	}
	return sizes, states
}

// crashOps are puts, overwrites, a delete of an absent key and, in the
// big-value churn, enough superseded bytes for one compaction, followed
// by three more entries.
func crashOps() []tableOp {
	ops := []tableOp{
		{key: "a", val: "1"}, {key: "b", val: "2"}, {key: "c", val: "3"},
		{key: "a", val: "1'"}, {key: "b", del: true}, {key: "absent", del: true},
		{key: "empty", val: ""},
	}
	big := strings.Repeat("x", 400<<10)
	for i := 0; i < 3; i++ {
		ops = append(ops, tableOp{key: "big", val: big}, tableOp{key: "big", del: true})
	}
	return append(ops,
		tableOp{key: "d", val: "4"}, tableOp{key: "c", val: "3'"}, tableOp{key: "a", del: true})
}

// TestTableCrashPoints cuts a table file at the compaction boundary and
// at every byte of its last three frames. Each cut reopens to exactly
// the state after the last operation whose frame is complete: no
// acknowledged operation is lost and no compaction is half applied.
func TestTableCrashPoints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.log")
	ops := crashOps()
	sizes, states := runOps(t, path, "crash", ops)
	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(final)) != sizes[len(ops)] {
		t.Fatalf("file is %d bytes, log says %d", len(final), sizes[len(ops)])
	}
	compacted := -1
	for i := 1; i <= len(ops); i++ {
		if sizes[i] < sizes[i-1] {
			if compacted >= 0 {
				t.Fatalf("compacted twice (ops %d and %d)", compacted, i)
			}
			compacted = i
		}
	}
	if compacted < 0 || compacted > len(ops)-3 {
		t.Fatalf("no compaction before the last three ops (at %d)", compacted)
	}

	cuts := []int64{sizes[compacted]}
	for c := sizes[len(ops)-3]; c <= sizes[len(ops)]; c++ {
		cuts = append(cuts, c)
	}
	for _, c := range cuts {
		i := len(ops)
		for sizes[i] > c {
			i--
		}
		if i < compacted {
			t.Fatalf("cut %d precedes the compaction boundary %d", c, sizes[compacted])
		}
		cut := filepath.Join(dir, fmt.Sprintf("cut-%d.log", c))
		if err := os.WriteFile(cut, final[:c], 0o644); err != nil {
			t.Fatal(err)
		}
		tab, err := OpenTable(cut, "crash")
		if err != nil {
			t.Fatalf("cut %d: %v", c, err)
		}
		if got := liveStrings(tab); !maps.Equal(got, states[i]) {
			t.Fatalf("cut at byte %d reopened to [%s], want the state after op %d: [%s]", c, summary(got), i, summary(states[i]))
		}
		// The truncated table takes further writes.
		if err := tab.Put("after", []byte("crash")); err != nil {
			t.Fatalf("cut %d: put after reopen: %v", c, err)
		}
		tab.Close()
		os.Remove(cut)
	}
}

// TestTableRejectsOtherHeaders: a table of another kind, a headerless
// log (the retired checkpoint format) and a table with an unknown entry
// fail the open, and each file is left byte-identical.
func TestTableRejectsOtherHeaders(t *testing.T) {
	dir := t.TempDir()
	other := filepath.Join(dir, "other.log")
	runOps(t, other, "zone-a", []tableOp{{key: "k", val: "v"}})

	headerless := filepath.Join(dir, "headerless.log")
	lg, err := openLog(headerless, nil)
	if err != nil {
		t.Fatal(err)
	}
	lg.append([]byte{tablePut, 1, 'k', 'v'})
	lg.close()

	unknown := filepath.Join(dir, "unknown.log")
	lg, err = openLog(unknown, nil)
	if err != nil {
		t.Fatal(err)
	}
	lg.append([]byte(tableMagic + "zone-b"))
	lg.append([]byte{9, 'k'})
	lg.close()

	for _, path := range []string{other, headerless, unknown} {
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if tab, err := OpenTable(path, "zone-b"); err == nil {
			tab.Close()
			t.Fatalf("%s: opened as a zone-b table", filepath.Base(path))
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
			t.Fatalf("%s: failed open changed the file", filepath.Base(path))
		}
	}
}

// TestTableWriteBatch: one Write applies its puts and deletes in order
// with one append. A delete of an absent key writes nothing, a key put
// and deleted in one batch ends absent, and a batch that changes
// nothing leaves the file as it was.
func TestTableWriteBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.log")
	tab, err := OpenTable(path, "batch")
	if err != nil {
		t.Fatal(err)
	}
	before := tab.log.end
	var b Batch
	b.Put("a", []byte("1"))
	b.Put("b", []byte("2"))
	b.Delete("absent")
	b.Put("c", []byte("3"))
	b.Delete("c")
	n, err := tab.Write(&b)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.log.end - before; got != int64(n) || n == 0 {
		t.Fatalf("write reported %d bytes, the log grew by %d", n, got)
	}
	want := map[string]string{"a": "1", "b": "2"}
	if got := liveStrings(tab); !maps.Equal(got, want) {
		t.Fatalf("live map = [%s], want [%s]", summary(got), summary(want))
	}
	var nop Batch
	nop.Delete("absent")
	nop.Delete("c")
	file, _ := os.ReadFile(path)
	if n, err := tab.Write(&nop); n != 0 || err != nil {
		t.Fatalf("a batch of absent deletes wrote %d bytes (%v)", n, err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, file) {
		t.Fatal("a batch that changes nothing changed the file")
	}
	tab.Close()
	tab, err = OpenTable(path, "batch")
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	if got := liveStrings(tab); !maps.Equal(got, want) {
		t.Fatalf("reopened to [%s], want [%s]", summary(got), summary(want))
	}
}

// TestTableWritesAfterClose: a closed table refuses writes.
func TestTableWritesAfterClose(t *testing.T) {
	tab, err := OpenTable(filepath.Join(t.TempDir(), "t.log"), "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Put("k", nil); err == nil {
		t.Fatal("put after close succeeded")
	}
	if err := tab.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestTableConcurrentWrites: writers on several goroutines, each with
// its own keys, interleave puts, overwrites and deletes through
// compactions; the reopened table holds every writer's last state.
func TestTableConcurrentWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.log")
	tab, err := OpenTable(path, "concurrent")
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{'v'}, 80<<10)
	want := make([]map[string]string, 4)
	var wg sync.WaitGroup
	for g := range want {
		want[g] = map[string]string{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%3)
				err := tab.Put(key, val[:i<<12])
				want[g][key] = string(val[:i<<12])
				if i%4 == 3 {
					err = errors.Join(err, tab.Delete(key))
					delete(want[g], key)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	all := map[string]string{}
	for _, m := range want {
		maps.Copy(all, m)
	}
	tab, err = OpenTable(path, "concurrent")
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	if got := liveStrings(tab); !maps.Equal(got, all) {
		t.Fatalf("reopened to [%s], want [%s]", summary(got), summary(all))
	}
}

const fuzzKind = "fuzz"

// replayFrames is the straightforward reading of a table file: the
// complete CRC-valid frames in order, the first of which must be the
// header. ok is false when a complete frame is not a table frame.
func replayFrames(b []byte, kind string) (state map[string]string, ok bool) {
	state = map[string]string{}
	for i := 0; len(b) >= frameHeader; i++ {
		n := binary.BigEndian.Uint32(b)
		if uint64(n) > uint64(len(b)-frameHeader) ||
			crc32.ChecksumIEEE(b[frameHeader:frameHeader+n]) != binary.BigEndian.Uint32(b[4:]) {
			break
		}
		p := b[frameHeader : frameHeader+n]
		b = b[frameHeader+n:]
		switch {
		case i == 0:
			if string(p) != tableMagic+kind {
				return nil, false
			}
		case len(p) > 0 && p[0] == tablePut:
			kl, w := binary.Uvarint(p[1:])
			if w <= 0 || kl > uint64(len(p)-1-w) {
				return nil, false
			}
			state[string(p[1+w:1+w+int(kl)])] = string(p[1+w+int(kl):])
		case len(p) > 0 && p[0] == tableDel:
			delete(state, string(p[1:]))
		default:
			return nil, false
		}
	}
	return state, true
}

// FuzzTableOpen feeds arbitrary bytes to OpenTable as a table file. It
// must not panic, must allocate in proportion to the input, and must
// either fail with the file unchanged or hold exactly the state a
// straightforward replay of the complete frames gives. The committed
// corpus (testdata/fuzz/FuzzTableOpen) holds a table written through a
// compaction and the same table with a torn tail.
func FuzzTableOpen(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "t.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, ok := replayFrames(data, fuzzKind)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tab, err := OpenTable(path, fuzzKind)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10+64*uint64(len(data)) {
			t.Fatalf("opening %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			if ok {
				t.Fatalf("open failed on a replayable table: %v", err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
				t.Fatal("failed open changed the file")
			}
			return
		}
		defer tab.Close()
		if !ok {
			t.Fatal("opened a file whose complete frames are not a table")
		}
		if got := liveStrings(tab); !maps.Equal(got, want) {
			t.Fatalf("opened to %v, replay gives %v", got, want)
		}
	})
}

func BenchmarkTablePut(b *testing.B) {
	for _, size := range []int{64, 4 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			tab, err := OpenTable(filepath.Join(b.TempDir(), "t.log"), "bench")
			if err != nil {
				b.Fatal(err)
			}
			defer tab.Close()
			keys := make([]string, 1024)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%04d", i)
			}
			val := bytes.Repeat([]byte{'v'}, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tab.Put(keys[i%len(keys)], val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
