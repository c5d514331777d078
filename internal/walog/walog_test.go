package walog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func replayAll(t *testing.T, path string) ([][]byte, *frameLog) {
	t.Helper()
	var got [][]byte
	l, err := openLog(path, func(p []byte) error {
		got = append(got, bytes.Clone(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, l
}

func TestAppendFlushReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, err := openLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("entry-%d", i))
		want = append(want, p)
		l.append(p)
	}
	if l.end != 0 {
		t.Fatalf("size before flush = %d, want 0", l.end)
	}
	if n, err := l.flush(); err != nil || n == 0 {
		t.Fatalf("flush = %d, %v", n, err)
	}
	if n, err := l.flush(); err != nil || n != 0 {
		t.Fatalf("idempotent flush = %d, %v; want 0, nil", n, err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	got, l2 := replayAll(t, path)
	defer l2.close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("entry %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestTornTailTruncated simulates kill -9 mid-append: a final frame
// whose payload never fully reached the disk must be dropped, and the
// entries before it must survive.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, err := openLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.append([]byte("good-1"))
	l.append([]byte("good-2"))
	if _, err := l.flush(); err != nil {
		t.Fatal(err)
	}
	l.close()

	// Crash mid-append: a header promising 100 bytes, with only 3 written.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 100, 0xde, 0xad, 0xbe, 0xef, 'x', 'y', 'z'})
	f.Close()
	torn, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	got, l2 := replayAll(t, path)
	if len(got) != 2 || string(got[0]) != "good-1" || string(got[1]) != "good-2" {
		t.Fatalf("replay after torn tail = %q", got)
	}
	// Opening alone leaves the file as it was; the first write cuts
	// the torn tail off.
	if b, _ := os.ReadFile(path); !bytes.Equal(b, torn) {
		t.Fatal("open changed the file before any write")
	}
	// The truncated log must accept further appends cleanly.
	l2.append([]byte("good-3"))
	if _, err := l2.flush(); err != nil {
		t.Fatal(err)
	}
	l2.close()
	got, l3 := replayAll(t, path)
	defer l3.close()
	if len(got) != 3 || string(got[2]) != "good-3" {
		t.Fatalf("replay after recovery append = %q", got)
	}
}

// TestCorruptTailTruncated: a full-length frame whose payload bits
// rotted (or were half-written) fails its CRC and is dropped.
func TestCorruptTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, err := openLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.append([]byte("keep"))
	l.append([]byte("rot!"))
	if _, err := l.flush(); err != nil {
		t.Fatal(err)
	}
	l.close()

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	got, l2 := replayAll(t, path)
	defer l2.close()
	if len(got) != 1 || string(got[0]) != "keep" {
		t.Fatalf("replay after corrupt tail = %q", got)
	}
}

func TestRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, err := openLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		l.append([]byte(fmt.Sprintf("old-%d", i)))
	}
	if _, err := l.flush(); err != nil {
		t.Fatal(err)
	}
	before := l.end
	if err := l.rewrite([][]byte{[]byte("compacted")}); err != nil {
		t.Fatal(err)
	}
	if l.end >= before {
		t.Fatalf("rewrite did not shrink the log: %d -> %d", before, l.end)
	}
	// Appends after a rewrite land in the new file.
	l.append([]byte("tail"))
	if _, err := l.flush(); err != nil {
		t.Fatal(err)
	}
	l.close()

	got, l2 := replayAll(t, path)
	defer l2.close()
	if len(got) != 2 || string(got[0]) != "compacted" || string(got[1]) != "tail" {
		t.Fatalf("replay after rewrite = %q", got)
	}
}
