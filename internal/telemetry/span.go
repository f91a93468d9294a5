package telemetry

import (
	"context"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one span within a Tracer; 0 means "no span" and is
// what a nil span reports, so parent links degrade gracefully when a
// layer above runs without tracing.
type SpanID uint64

// Tracer assigns span IDs and writes finished spans as JSON lines. A nil
// *Tracer is a valid disabled tracer: Start returns a nil span whose
// every method no-ops without allocating.
//
// Each finished span is emitted with ONE Write call carrying one
// complete, newline-terminated JSON object, so a Tracer can share a
// writer with other line-oriented streams — in particular the VO's
// JSONLTracer event stream (see NewSyncWriter) — and the merged output
// stays parseable line by line.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	err error

	next atomic.Uint64

	// clock returns the current wall time in nanoseconds. Tests inject a
	// fake for deterministic output; the default is time.Now.
	clock func() int64
}

// NewTracer returns a tracer writing JSONL spans to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, clock: func() int64 { return time.Now().UnixNano() }}
}

// SetClock replaces the wall-clock source (nanoseconds); for tests.
func (t *Tracer) SetClock(fn func() int64) {
	if t == nil || fn == nil {
		return
	}
	t.clock = fn
}

// Err returns the first write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// attr is one span attribute; integer and string values are kept typed so
// hot paths never box through interface{}.
type attr struct {
	key   string
	str   string
	num   int64
	isnum bool
}

// Span is one timed operation. Acquire with Tracer.Start; a nil *Span
// no-ops everywhere and reports SpanID 0.
type Span struct {
	t      *Tracer
	id     SpanID
	parent SpanID
	name   string
	start  int64

	mu    sync.Mutex
	attrs []attr
	ended bool
}

// Start opens a span named name under parent (0 for a root). On a nil
// tracer it returns nil, costing nothing.
func (t *Tracer) Start(name string, parent SpanID) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		t:      t,
		id:     SpanID(t.next.Add(1)),
		parent: parent,
		name:   name,
		start:  t.clock(),
	}
}

// ID returns the span's ID; 0 on nil.
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// SetInt attaches an integer attribute. Nil-safe; returns s for chaining.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr{key: key, num: v, isnum: true})
	s.mu.Unlock()
	return s
}

// SetStr attaches a string attribute. Nil-safe; returns s for chaining.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr{key: key, str: v})
	s.mu.Unlock()
	return s
}

// End closes the span and writes its JSONL line. Idempotent; nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.t.clock()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	// Marshal by hand: attribute order is insertion order (encoding/json
	// maps would sort and box), and the whole line lands in one Write.
	buf := make([]byte, 0, 128)
	buf = append(buf, `{"span":`...)
	buf = strconv.AppendUint(buf, uint64(s.id), 10)
	if s.parent != 0 {
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendUint(buf, uint64(s.parent), 10)
	}
	buf = append(buf, `,"name":`...)
	buf = appendJSONString(buf, s.name)
	buf = append(buf, `,"start":`...)
	buf = strconv.AppendInt(buf, s.start, 10)
	buf = append(buf, `,"end":`...)
	buf = strconv.AppendInt(buf, end, 10)
	if len(attrs) > 0 {
		buf = append(buf, `,"attrs":{`...)
		for i, a := range attrs {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, a.key)
			buf = append(buf, ':')
			if a.isnum {
				buf = strconv.AppendInt(buf, a.num, 10)
			} else {
				buf = appendJSONString(buf, a.str)
			}
		}
		buf = append(buf, '}')
	}
	buf = append(buf, '}', '\n')

	t := s.t
	t.mu.Lock()
	if t.err == nil {
		_, t.err = t.w.Write(buf)
	}
	t.mu.Unlock()
}

// appendJSONString appends s as a JSON string literal, escaping the
// characters that matter for JSONL (quotes, backslash, control chars).
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			buf = append(buf, '\\', '"')
		case c == '\\':
			buf = append(buf, '\\', '\\')
		case c == '\n':
			buf = append(buf, '\\', 'n')
		case c == '\t':
			buf = append(buf, '\\', 't')
		case c == '\r':
			buf = append(buf, '\\', 'r')
		case c < 0x20:
			buf = append(buf, '\\', 'u', '0', '0', hexDigit(c>>4), hexDigit(c&0xf))
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

func hexDigit(n byte) byte {
	if n < 10 {
		return '0' + n
	}
	return 'a' + n - 10
}

// spanCtxKey keys the active span ID in a context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying id as the active span, so layers
// that only share a context (strategy → criticalworks) can still parent
// their spans. A zero id, what a nil span reports, returns ctx itself: a
// run with tracing off wraps no context and allocates nothing here.
func ContextWithSpan(ctx context.Context, id SpanID) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, id)
}

// SpanFromContext returns the active span ID, or 0. Never allocates.
func SpanFromContext(ctx context.Context) SpanID {
	if ctx == nil {
		return 0
	}
	if id, ok := ctx.Value(spanCtxKey{}).(SpanID); ok {
		return id
	}
	return 0
}

// syncWriter serializes Write calls.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewSyncWriter wraps w so concurrent Write calls are serialized. Share
// one between a span Tracer and a metasched JSONL event tracer to
// interleave both streams into a single file without tearing lines: both
// sinks emit exactly one Write per complete line.
func NewSyncWriter(w io.Writer) io.Writer {
	return &syncWriter{w: w}
}

// Write implements io.Writer.
func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// Since returns the seconds elapsed since start, for feeding wall-clock
// histograms. Kept here so instrumented packages need no direct time
// dependency beyond what they already have.
func Since(start time.Time) float64 { return time.Since(start).Seconds() }
