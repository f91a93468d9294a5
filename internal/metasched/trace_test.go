package metasched

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/workload"
)

func TestMemoryTracerCapturesLifecycle(t *testing.T) {
	e := sim.New()
	env := twoDomainEnv()
	tr := &MemoryTracer{}
	vo := NewVO(e, env, Config{Tracer: tr})
	vo.Submit(simpleJob("traced", 50), strategy.S1, 5)
	e.Run()

	for _, want := range []EventKind{EventArrive, EventActivate, EventStart, EventComplete} {
		if tr.Count(want) != 1 {
			t.Errorf("%s events = %d, want 1", want, tr.Count(want))
		}
	}
	if tr.Count(EventEvict) != 0 || tr.Count(EventReject) != 0 {
		t.Error("spurious evict/reject events")
	}
	// Event ordering: arrive before activate before start before complete.
	order := map[EventKind]int{}
	for i, ev := range tr.Events() {
		if ev.Job == "traced" {
			order[ev.Kind] = i
		}
	}
	if !(order[EventArrive] < order[EventActivate] &&
		order[EventActivate] < order[EventStart] &&
		order[EventStart] < order[EventComplete]) {
		t.Errorf("event order wrong: %v", order)
	}
}

func TestTracerSeesEvictionChain(t *testing.T) {
	// The deterministic eviction scenario from the lifecycle tests, now
	// observed through the tracer.
	e := sim.New()
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "fast", 1.0, "dom"),
		resource.NewNode(1, "slow", 0.27, "dom"),
	})
	tr := &MemoryTracer{}
	vo := NewVO(e, env, Config{Objective: criticalworks.MinCost, Tracer: tr})
	if !vo.InjectExternal(1, simtime.Interval{Start: 0, End: 10}) {
		t.Fatal("pre-load rejected")
	}
	b := dag.NewBuilder("victim").Deadline(80)
	b.Task("T", 4, 16)
	vo.Submit(b.MustBuild(), strategy.S1, 0)
	e.At(2, "attack", func() {
		vo.InjectExternal(1, simtime.Interval{Start: 12, End: 30})
	})
	e.Run()

	if tr.Count(EventEvict) != 1 {
		t.Errorf("evict events = %d, want 1", tr.Count(EventEvict))
	}
	if tr.Count(EventFallback) != 1 {
		t.Errorf("fallback events = %d, want 1", tr.Count(EventFallback))
	}
	if tr.Count(EventExternal) != 2 {
		t.Errorf("external events = %d, want 2", tr.Count(EventExternal))
	}
	if tr.Count(EventComplete) != 1 {
		t.Errorf("complete events = %d, want 1", tr.Count(EventComplete))
	}
}

func TestJSONLTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	e := sim.New()
	env := twoDomainEnv()
	vo := NewVO(e, env, Config{Tracer: tr})
	vo.Submit(simpleJob("j", 50), strategy.S2, 0)
	e.Run()
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 4 {
		t.Fatalf("JSONL lines = %d, want ≥ 4", len(lines))
	}
	for _, l := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", l, err)
		}
		if ev.Kind == "" {
			t.Errorf("event without kind: %q", l)
		}
	}
}

func TestTracerFuncAdapter(t *testing.T) {
	var got []EventKind
	tr := TracerFunc(func(e Event) { got = append(got, e.Kind) })
	tr.Trace(Event{Kind: EventArrive})
	if len(got) != 1 || got[0] != EventArrive {
		t.Errorf("TracerFunc got %v", got)
	}
}

// TestTraceAllocs pins the event stream's cost: an event travels by value
// from the call site to the Tracer, stamped with the engine's time on the
// way, so emitting one allocates nothing.
func TestTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; the pin runs in CI's step without -race")
	}
	var got Event
	seen := 0
	e := sim.New()
	vo := NewVO(e, twoDomainEnv(), Config{Tracer: TracerFunc(func(ev Event) { got = ev; seen++ })})
	e.At(7, "advance", func() {})
	e.Run()
	want := Event{Kind: EventActivate, Job: "j", Domain: "dom-0", Level: 2, Start: 9, End: 30}
	emit := func() { vo.trace(want) }
	if allocs := testing.AllocsPerRun(100, emit); allocs != 0 {
		t.Errorf("one trace with a Tracer set allocates %.1f objects, want 0", allocs)
	}
	want.At = 7
	if seen != 101 || got != want {
		t.Errorf("the tracer saw %d events, the last %+v; want 101, the last %+v", seen, got, want)
	}
}

func TestRoundRobinSkipsExcluded(t *testing.T) {
	e := sim.New()
	env := twoDomainEnv()
	vo := NewVO(e, env, Config{})
	// Deadline 1 is infeasible anywhere: the job is placed, fails, and
	// must try the OTHER domain exactly once before rejection.
	vo.Submit(simpleJob("tight", 1), strategy.S1, 0)
	e.Run()
	r := vo.Results()[0]
	if r.State != StateRejected || r.Reallocations != 1 {
		t.Errorf("state=%v reallocs=%d, want rejected after 1 reallocation", r.State, r.Reallocations)
	}
}

func TestDefaultWorkloadThroughTracerSmoke(t *testing.T) {
	// A loaded run with the tracer on: event stream stays consistent
	// (every activate is eventually matched by evict/complete/reject).
	e := sim.New()
	gen := workload.New(workload.Default(5))
	env := gen.Environment(2)
	tr := &MemoryTracer{}
	vo := NewVO(e, env, Config{
		ExternalMeanGap: 9,
		ExternalLead:    3,
		ExternalDurLo:   4,
		ExternalDurHi:   12,
		ExternalUntil:   800,
		Tracer:          tr,
		Seed:            5,
	})
	for _, a := range gen.Flow(0, 25, 0) {
		vo.Submit(a.Job, strategy.S1, a.At)
	}
	e.Run()
	if tr.Count(EventArrive) != 25 {
		t.Errorf("arrive events = %d", tr.Count(EventArrive))
	}
	terminal := tr.Count(EventComplete) + tr.Count(EventReject)
	if terminal != 25 {
		t.Errorf("terminal events = %d, want 25", terminal)
	}
	// Each eviction must have had a preceding activation.
	if tr.Count(EventEvict) > tr.Count(EventActivate) {
		t.Error("more evictions than activations")
	}
}
