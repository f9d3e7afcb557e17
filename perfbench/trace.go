package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's origin; parent is the index of the enclosing span (-1 for a
// root) and req groups the spans of one request or one site.
type span struct {
	start, end int64
	req        int64
	parent     int32
	name       uint16
}

// tracer records spans in memory and writes them out once the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	names []string
	ids   map[string]uint16
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), ids: map[string]uint16{}, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	t.spans = append(t.spans, span{start: now, end: -1, req: req, parent: parent, name: id})
	return int32(len(t.spans) - 1)
}

// finish closes span i.
func (t *tracer) finish(i int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int32, req int64, f func()) {
	i := t.begin(name, parent, req)
	f()
	t.finish(i)
}

// layerTime is the aggregate of all spans of one name.
type layerTime struct {
	Count int
	// Total is the summed span duration, Self the summed duration not
	// covered by any direct child span.
	Total, Self time.Duration
}

// selfTimes computes every span's self time — its duration minus the
// union of its direct children's intervals, clipped to the span — and
// aggregates the result by span name.
func selfTimes(names []string, spans []span) map[string]layerTime {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make(map[string]layerTime, len(names))
	var iv [][2]int64
	for i, s := range spans {
		if s.end < s.start {
			continue // never finished
		}
		iv = iv[:0]
		for _, c := range children[i] {
			cs := spans[c]
			lo, hi := max(cs.start, s.start), min(cs.end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		curHi = -1
		for _, x := range iv {
			if x[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		lt := out[names[s.name]]
		lt.Count++
		lt.Total += time.Duration(s.end - s.start)
		lt.Self += time.Duration(s.end - s.start - covered)
		out[names[s.name]] = lt
	}
	return out
}

// layers aggregates the recorded spans by name.
func (t *tracer) layers() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.names, t.spans)
}

// writeTSV writes every span, one per line: index, name, request, parent,
// start and end in nanoseconds since the tracer's origin.
func (t *tracer) writeTSV(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	//thorlint:allow no-unchecked-error a bufio.Writer keeps its first error for Flush, which is checked
	fmt.Fprintln(w, "id\tname\treq\tparent\tstart_ns\tend_ns")
	for i, s := range t.spans {
		//thorlint:allow no-unchecked-error a bufio.Writer keeps its first error for Flush, which is checked
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, t.names[s.name], s.req, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		//thorlint:allow no-unchecked-error the flush error is the one reported
		f.Close()
		return err
	}
	return f.Close()
}
