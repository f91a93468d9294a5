package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
)

// fakeClock returns a nanosecond clock ticking by 10 per read, so span
// lines have exact, deterministic start/end values.
func fakeClock() func() int64 {
	var t int64
	return func() int64 {
		t += 10
		return t
	}
}

func TestSpanJSONLExactBytes(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetClock(fakeClock())

	root := tr.Start("metasched.adopt", 0) // start=10
	root.SetStr("job", "j1").SetInt("initial", 1)
	child := tr.Start("strategy.generate", root.ID()) // start=20
	child.End()                                       // end=30
	root.End()                                        // end=40

	want := `{"span":2,"parent":1,"name":"strategy.generate","start":20,"end":30}` + "\n" +
		`{"span":1,"name":"metasched.adopt","start":10,"end":40,"attrs":{"job":"j1","initial":1}}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("span stream:\n got: %q\nwant: %q", got, want)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetClock(fakeClock())
	sp := tr.Start("x", 0)
	sp.End()
	sp.End()
	sp.End()
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 1 {
		t.Fatalf("span emitted %d lines, want 1", n)
	}
}

func TestSpanEscaping(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetClock(fakeClock())
	tr.Start(`na"me\with`+"\n\tctrl\x01", 0).SetStr("k", `v"\`+"\r").End()

	var line struct {
		Name  string            `json:"name"`
		Attrs map[string]string `json:"attrs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("span line is not valid JSON: %v\nline: %q", err, buf.String())
	}
	if want := "na\"me\\with\n\tctrl\x01"; line.Name != want {
		t.Fatalf("name round-trip = %q, want %q", line.Name, want)
	}
	if want := "v\"\\\r"; line.Attrs["k"] != want {
		t.Fatalf("attr round-trip = %q, want %q", line.Attrs["k"], want)
	}
}

func TestSpanContextPlumbing(t *testing.T) {
	if got := SpanFromContext(nil); got != 0 {
		t.Fatalf("SpanFromContext(nil) = %d, want 0", got)
	}
	if got := SpanFromContext(context.Background()); got != 0 {
		t.Fatalf("SpanFromContext(empty) = %d, want 0", got)
	}
	ctx := ContextWithSpan(context.Background(), 42)
	if got := SpanFromContext(ctx); got != 42 {
		t.Fatalf("SpanFromContext = %d, want 42", got)
	}
	// The read side is what sits on the disabled hot path; it must never
	// allocate even on a bare context.
	if n := testing.AllocsPerRun(1000, func() {
		_ = SpanFromContext(context.Background())
	}); n != 0 {
		t.Fatalf("SpanFromContext allocates %v times per run, want 0", n)
	}
}

// TestZeroSpanContextAllocationFree pins the one branch tracing off takes
// in a context: a nil span's ID is 0, and ContextWithSpan(ctx, 0) hands
// back ctx itself without allocating, so callers need not check first.
func TestZeroSpanContextAllocationFree(t *testing.T) {
	ctx := ContextWithSpan(context.Background(), 7)
	if got := ContextWithSpan(ctx, 0); got != ctx {
		t.Fatal("ContextWithSpan(ctx, 0) wrapped ctx, want ctx itself")
	}
	var sp *Span
	if n := testing.AllocsPerRun(1000, func() {
		_ = ContextWithSpan(ctx, sp.ID())
	}); n != 0 {
		t.Fatalf("ContextWithSpan(ctx, 0) allocates %v times per run, want 0", n)
	}
}

type failWriter struct{ calls int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.calls++
	return 0, errors.New("sink broke")
}

func TestTracerErrSticky(t *testing.T) {
	fw := &failWriter{}
	tr := NewTracer(fw)
	tr.SetClock(fakeClock())
	tr.Start("a", 0).End()
	tr.Start("b", 0).End()
	if tr.Err() == nil {
		t.Fatal("write error was swallowed")
	}
	if fw.calls != 1 {
		t.Fatalf("tracer kept writing after the first error: %d calls", fw.calls)
	}
}

// TestTracerConcurrent hammers one tracer from many goroutines; with the
// fake clock removed timing is nondeterministic but every line must still
// be complete, parseable JSON (the one-Write-per-line contract).
func TestTracerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSyncWriter(&buf)
	tr := NewTracer(sink)
	var wg sync.WaitGroup
	const goroutines = 16
	const spansEach = 50
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			for k := 0; k < spansEach; k++ {
				tr.Start("op", 0).SetInt("k", int64(k)).End()
			}
		}()
	}
	wg.Wait()

	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	lines := 0
	for sc.Scan() {
		lines++
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("torn span line %d: %v\n%q", lines, err, sc.Text())
		}
	}
	if lines != goroutines*spansEach {
		t.Fatalf("got %d span lines, want %d", lines, goroutines*spansEach)
	}
}
