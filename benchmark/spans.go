package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// span is one finished span of the traced pass, as parsed back from the
// tracer's JSONL. IDs are made unique across tracers by the source index.
type span struct {
	ID, Parent uint64
	Name       string
	Start, End int64 // wall nanoseconds
	Source     int   // which tracer wrote it (one per server in fed_durable)
}

func (s span) dur() int64 { return s.End - s.Start }

// sourceShift namespaces span IDs per tracer: every tracer counts from 1.
const sourceShift = 48

// parseSpans decodes one tracer's JSONL output.
func parseSpans(jsonl []byte, source int) ([]span, error) {
	var out []span
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var raw struct {
			Span, Parent uint64
			Name         string
			Start, End   int64
		}
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			return nil, fmt.Errorf("span line %d: %w", len(out)+1, err)
		}
		s := span{ID: raw.Span, Parent: raw.Parent, Name: raw.Name, Start: raw.Start, End: raw.End, Source: source}
		s.ID |= uint64(source) << sourceShift
		if s.Parent != 0 {
			s.Parent |= uint64(source) << sourceShift
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// engineSide reports whether a span is emitted by the goroutine that owns
// a simulation engine (or by its placer pool) rather than by a request
// path. In fed_durable both run at once inside one shard, so a request
// span that happens to sit inside a process_batch interval is a
// coincidence of timing, not a call.
func engineSide(name string) bool {
	for _, p := range []string{
		"service.process", "service.drain", "metasched.", "strategy.", "criticalworks.",
		"driver.process", "driver.quiesce", "driver.drain", "driver.run", "driver.probe.",
	} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// reparent gives every span the program rooted at parent 0 a parent by
// time containment: the shortest span of the same tracer and the same
// side (engineSide) whose interval contains it, or else root when root's
// interval does. The program roots service.process{,_batch},
// metasched.adopt/fallback and the placer pool's strategy.generate at 0;
// the benchmark stitches them here, in its own code. root is the ID of
// the driver's driver.timed span and is never re-parented itself.
func reparent(spans []span, root uint64) {
	// Only spans that start a call tree can adopt; leaves of the build
	// (strategy.level, criticalworks.*) always carry a real parent link.
	var cands []int
	var rootSpan *span
	for i := range spans {
		s := &spans[i]
		if s.ID == root {
			rootSpan = s
			continue
		}
		if strings.HasPrefix(s.Name, "criticalworks.") || s.Name == "strategy.level" {
			continue
		}
		cands = append(cands, i)
	}
	sort.Slice(cands, func(a, b int) bool { return spans[cands[a]].Start < spans[cands[b]].Start })
	for i := range spans {
		o := &spans[i]
		if o.Parent != 0 || o.ID == root {
			continue
		}
		side := engineSide(o.Name)
		best := -1
		for _, ci := range cands {
			c := &spans[ci]
			if c.Start > o.Start {
				break
			}
			if ci == i || c.End < o.End || c.Source != o.Source || engineSide(c.Name) != side {
				continue
			}
			if c.Start == o.Start && c.End == o.End && c.ID > o.ID {
				continue // identical intervals: the earlier span is the outer one
			}
			if best < 0 || c.dur() < spans[best].dur() {
				best = ci
			}
		}
		switch {
		case best >= 0:
			o.Parent = spans[best].ID
		case rootSpan != nil && rootSpan.Start <= o.Start && o.End <= rootSpan.End:
			o.Parent = root
		}
	}
}

// selfTimes attributes every nanosecond of root's interval to exactly one
// span name. A span's self time is its duration minus the union of its
// children's intervals; where k spans are innermost at the same instant
// (parallel placer builds, two shards working at once) the instant is
// split k ways, so the returned values sum to root's duration — which is
// what lets the layer table add up to the traced wall. Spans outside
// root's interval (restore after the timed section) are ignored, spans
// straddling it are clipped.
func selfTimes(spans []span, root uint64) (self map[string]float64, wall int64) {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	ri, ok := byID[root]
	if !ok {
		return nil, 0
	}
	wall = spans[ri].dur()

	// Clip every span to its parent's (already clipped) interval, parents
	// first, so nesting is proper even where clock granularity lets a
	// child outlive its parent by a tick. A span without a known parent
	// hangs off root.
	parent := make([]int, len(spans))
	lo := make([]int64, len(spans))
	hi := make([]int64, len(spans))
	state := make([]byte, len(spans)) // 0 new, 1 visiting, 2 done
	var clip func(i int)
	clip = func(i int) {
		if state[i] != 0 {
			return
		}
		state[i] = 1
		lo[i], hi[i] = spans[i].Start, spans[i].End
		parent[i] = -1
		if i != ri {
			p, ok := byID[spans[i].Parent]
			if !ok || spans[i].Parent == 0 || state[p] == 1 {
				p = ri
			}
			clip(p)
			parent[i] = p
			lo[i], hi[i] = max(lo[i], lo[p]), min(hi[i], hi[p])
		}
		state[i] = 2
	}
	for i := range spans {
		clip(i)
	}

	type event struct {
		at    int64
		start bool
		idx   int
	}
	events := make([]event, 0, 2*len(spans))
	for i := range spans {
		if hi[i] > lo[i] {
			events = append(events, event{lo[i], true, i}, event{hi[i], false, i})
		}
	}
	// At one instant ends come before starts, so back-to-back spans never
	// count as overlapping; parents (smaller IDs) open first and close last.
	sort.Slice(events, func(a, b int) bool {
		ea, eb := events[a], events[b]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		if ea.start != eb.start {
			return !ea.start
		}
		if ea.start {
			return spans[ea.idx].ID < spans[eb.idx].ID
		}
		return spans[ea.idx].ID > spans[eb.idx].ID
	})

	kids := make([]int, len(spans)) // active children per span
	inner := map[string]int{}       // innermost active spans, by name
	innerN := 0
	setInner := func(i, d int) {
		inner[spans[i].Name] += d
		innerN += d
	}
	self = map[string]float64{}
	prev := lo[ri]
	for _, ev := range events {
		if ev.at > prev && innerN > 0 {
			share := float64(ev.at-prev) / float64(innerN)
			for name, n := range inner {
				if n > 0 {
					self[name] += share * float64(n)
				}
			}
		}
		prev = ev.at
		i, p := ev.idx, parent[ev.idx]
		if ev.start {
			if p >= 0 {
				if kids[p] == 0 {
					setInner(p, -1)
				}
				kids[p]++
			}
			setInner(i, +1)
			continue
		}
		if kids[i] == 0 {
			setInner(i, -1)
		}
		if p >= 0 {
			kids[p]--
			if kids[p] == 0 {
				setInner(p, +1)
			}
		}
	}
	return self, wall
}

// durations collects the durations (ns) of every span whose name is one
// of names and which lies inside root's interval.
func durations(spans []span, root uint64, names ...string) []float64 {
	var lo, hi int64
	for _, s := range spans {
		if s.ID == root {
			lo, hi = s.Start, s.End
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Start < lo || s.End > hi {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				out = append(out, float64(s.dur()))
			}
		}
	}
	return out
}

// layerOf is the module a span name belongs to: the text before the
// first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}
