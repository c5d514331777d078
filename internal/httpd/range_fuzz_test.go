package httpd

import "testing"

// FuzzParseRange feeds arbitrary Range headers and file sizes to
// parseRange. It must never panic, and a range it accepts as
// satisfiable must select at least one byte inside the file: the
// window drives the bulk read's offset arithmetic and the 206's
// Content-Length. The committed corpus (testdata/fuzz/FuzzParseRange)
// runs as plain seeds in every test run.
func FuzzParseRange(f *testing.F) {
	for _, seed := range []struct {
		header string
		size   int64
	}{
		{"bytes=0-99", 500},
		{"bytes=-1000", 500},
		{"bytes=100-", 0},
		{"bytes=9223372036854775807-", 9223372036854775807},
		{"bytes=-9223372036854775807", 1},
		{"bytes=0-0,5-9", 10},
		{" bytes= 7 - 3 ", 10},
	} {
		f.Add(seed.header, seed.size)
	}
	f.Fuzz(func(t *testing.T, header string, size int64) {
		if size < 0 {
			return // file sizes are never negative
		}
		off, n, ok, satisfiable := parseRange(header, size)
		if satisfiable && !ok {
			t.Fatalf("parseRange(%q, %d): satisfiable but not ok", header, size)
		}
		if !satisfiable {
			return
		}
		if off < 0 || n < 1 || off > size-n {
			t.Fatalf("parseRange(%q, %d) = [%d, %d+%d), outside the file or empty", header, size, off, off, n)
		}
	})
}
