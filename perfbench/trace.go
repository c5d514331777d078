package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Spans of one operation share op; parent is the id of the
// span that caused this one (0 for an operation's root).
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// opHeader carries the client's op and span ids to the traced edge, so
// the server-side span joins the operation that caused it.
const (
	opHeader   = "X-Perfbench-Op"
	spanHeader = "X-Perfbench-Span"
)

// tracer keeps spans in memory until the run ends. It records only
// while on; off, every method is a single atomic load.
type tracer struct {
	on    atomic.Bool
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

var trc = &tracer{base: time.Now()}

// begin opens a span; the returned function closes and records it
// with the payload bytes the call moved.
func (t *tracer) begin(name string, op, parent uint64) (id uint64, end func(bytes int64)) {
	if !t.on.Load() {
		return 0, func(int64) {}
	}
	id = t.ids.Add(1)
	start := time.Since(t.base).Nanoseconds()
	return id, func(bytes int64) {
		s := span{Name: name, Op: op, ID: id, Parent: parent, Start: start, End: time.Since(t.base).Nanoseconds(), Bytes: bytes}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// tracedEdge wraps the GDN-HTTPD so a traced request records an
// httpd.serve span around Handler.ServeHTTP under the client's op.
func tracedEdge(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !trc.on.Load() || r.Header.Get(opHeader) == "" {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		_, end := trc.begin("httpd.serve", op, parent)
		h.ServeHTTP(w, r)
		end(0)
	})
}

// layerTime is a span name's inclusive and self time: self is the
// span's duration minus the part of its interval its child spans
// cover.
type layerTime struct {
	count     int
	inclusive time.Duration
	self      time.Duration
	bytes     int64
	durs      []float64 // inclusive durations, ms
}

// p50 is the median inclusive duration in ms, 0 without spans.
func (l *layerTime) p50() float64 {
	if l == nil {
		return 0
	}
	return quantile(l.durs, 0.5)
}

// msPerMB is inclusive time per MiB of payload the spans moved.
func (l *layerTime) msPerMB() float64 {
	if l == nil || l.bytes == 0 {
		return 0
	}
	return l.inclusive.Seconds() * 1e3 / (float64(l.bytes) / (1 << 20))
}

// meanMS is the mean inclusive duration in ms.
func (l *layerTime) meanMS() float64 {
	if l == nil || l.count == 0 {
		return 0
	}
	return l.inclusive.Seconds() * 1e3 / float64(l.count)
}

// layers derives per-name inclusive and self time from the spans.
func (t *tracer) layers() map[string]*layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		l := out[s.Name]
		if l == nil {
			l = &layerTime{}
			out[s.Name] = l
		}
		l.count++
		l.inclusive += s.dur()
		l.self += s.dur() - covered(s, children[s.ID])
		l.bytes += s.Bytes
		l.durs = append(l.durs, s.dur().Seconds()*1e3)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64
	curStart, curEnd = -1, -1
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = start, end
		} else if end > curEnd {
			curEnd = end
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return time.Duration(total)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
