package main

import (
	"sort"
	"sync"
	"time"
)

// tracer keeps the benchmark's own spans in memory: one per call the
// benchmark makes into a layer, named after that call. A nil tracer
// records nothing, which is how untraced runs measure.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

type span struct {
	name       string
	parent     int
	start, end time.Time
}

// noSpan is the parent of a root span and the id a nil tracer returns.
const noSpan = -1

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return noSpan
	}
	return t.record(name, parent, time.Now(), time.Time{})
}

// end closes the span begin opened.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds a span with explicit bounds, for intervals measured
// before the tracer could open them (an open-loop request's queueing).
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end})
	return len(t.spans) - 1
}

// spanStat aggregates the spans of one name: how many, their total
// duration and their self time — duration minus the part of it that
// child spans cover.
type spanStat struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
}

// stats computes per-name totals and self times, sorted by self time.
func (t *tracer) stats() []spanStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.parent != noSpan {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	byName := map[string]*spanStat{}
	var names []string
	for i, s := range t.spans {
		if s.end.IsZero() {
			continue
		}
		dur := s.end.Sub(s.start)
		st := byName[s.name]
		if st == nil {
			st = &spanStat{Name: s.name}
			byName[s.name] = st
			names = append(names, s.name)
		}
		st.Count++
		st.TotalMS += ms(dur)
		st.SelfMS += ms(dur - t.covered(s, children[i]))
	}
	out := make([]spanStat, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered returns how much of parent's interval the union of the
// given child spans covers.
func (t *tracer) covered(parent span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		c := t.spans[k]
		if c.end.IsZero() {
			continue
		}
		a, b := c.start, c.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
