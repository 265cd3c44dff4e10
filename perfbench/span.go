package main

import (
	"cmp"
	"slices"
	"time"
)

// span is one timed call at a layer boundary, recorded by the benchmark
// around a call into the program. Parent indexes the same span slice
// (-1 for a request's root); the spans of one request share Trace.
type span struct {
	Trace  int64  `json:"trace"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps one goroutine's spans in memory until the run ends. A
// nil recorder records nothing, so untraced runs pay one nil check per
// boundary.
type recorder struct {
	base  time.Time
	trace int64
	spans []span
}

// newRecorder starts a recorder whose trace ids begin at firstTrace, so
// recorders of different goroutines never share an id.
func newRecorder(base time.Time, firstTrace int64) *recorder {
	return &recorder{base: base, trace: firstTrace - 1}
}

// request opens the root span of the next request.
func (r *recorder) request(name string) int32 {
	if r == nil {
		return -1
	}
	r.trace++
	return r.begin(name, -1)
}

// begin opens a span under parent and returns its index.
func (r *recorder) begin(name string, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Trace: r.trace, Parent: parent, Name: name, Start: int64(time.Since(r.base))})
	return int32(len(r.spans) - 1)
}

// end closes the span begin returned.
func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.base))
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children count
// once, and a child's time outside its parent's interval is ignored.
func selfTimes(spans []span) []int64 {
	type cover struct {
		parent     int32
		start, end int64
	}
	self := make([]int64, len(spans))
	var kids []cover
	for i, s := range spans {
		self[i] = s.End - s.Start
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if st, en := max(s.Start, p.Start), min(s.End, p.End); en > st {
			kids = append(kids, cover{s.Parent, st, en})
		}
	}
	slices.SortFunc(kids, func(a, b cover) int {
		if c := cmp.Compare(a.parent, b.parent); c != 0 {
			return c
		}
		return cmp.Compare(a.start, b.start)
	})
	for i := 0; i < len(kids); {
		p, st, en := kids[i].parent, kids[i].start, kids[i].end
		j := i + 1
		for ; j < len(kids) && kids[j].parent == p; j++ {
			if kids[j].start <= en {
				en = max(en, kids[j].end)
				continue
			}
			self[p] -= en - st
			st, en = kids[j].start, kids[j].end
		}
		self[p] -= en - st
		i = j
	}
	return self
}

// layerTime sums one span name's calls: how many, their self time and
// their whole duration, in nanoseconds.
type layerTime struct {
	Calls int64
	Self  int64
	Total int64
}

// layerTimes groups spans by name.
func layerTimes(spans []span) map[string]*layerTime {
	self := selfTimes(spans)
	out := make(map[string]*layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Calls++
		lt.Self += self[i]
		lt.Total += s.End - s.Start
	}
	return out
}

// firstTraces returns the leading spans of the first n requests.
func firstTraces(spans []span, n int) []span {
	seen, last := 0, int64(-1)
	for i, s := range spans {
		if s.Trace != last {
			if seen == n {
				return spans[:i]
			}
			seen, last = seen+1, s.Trace
		}
	}
	return spans
}
