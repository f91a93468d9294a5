package metasched

import (
	"encoding/json"
	"io"
	"sync"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// EventKind classifies a trace event.
type EventKind string

// The VO lifecycle events.
const (
	EventArrive     EventKind = "arrive"
	EventActivate   EventKind = "activate"
	EventStart      EventKind = "start"
	EventEvict      EventKind = "evict"
	EventFallback   EventKind = "fallback"
	EventReallocate EventKind = "reallocate"
	EventComplete   EventKind = "complete"
	EventReject     EventKind = "reject"
	EventExternal   EventKind = "external"

	// Fault-injection events (see internal/faults). EventNodeDown/Up mark
	// outage boundaries (Domain set on whole-domain outages); EventTaskFailed
	// records a running job losing a task; EventRetry records its
	// backoff-delayed recovery attempt (Level carries the attempt number,
	// Start the scheduled recovery time).
	EventNodeDown   EventKind = "node-down"
	EventNodeUp     EventKind = "node-up"
	EventTaskFailed EventKind = "task-failed"
	EventRetry      EventKind = "retry"
)

// Event is one VO occurrence, suitable for JSONL export and offline
// analysis of a run.
type Event struct {
	At     simtime.Time `json:"at"`
	Kind   EventKind    `json:"kind"`
	Job    string       `json:"job,omitempty"`
	Domain string       `json:"domain,omitempty"`
	Level  int          `json:"level,omitempty"`
	Node   int          `json:"node,omitempty"`
	Start  simtime.Time `json:"start,omitempty"`
	End    simtime.Time `json:"end,omitempty"`
	Detail string       `json:"detail,omitempty"`
}

// Tracer receives VO events as they happen. Implementations must be cheap;
// they run inside the simulation loop.
type Tracer interface {
	Trace(Event)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(Event)

// Trace implements Tracer.
func (f TracerFunc) Trace(e Event) { f(e) }

// JSONLTracer streams events as JSON lines to a writer. Safe for
// concurrent use, though the simulation itself is single-threaded.
type JSONLTracer struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONLTracer wraps w.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{enc: json.NewEncoder(w)}
}

// Trace implements Tracer; the first write error sticks and is reported by
// Err.
func (t *JSONLTracer) Trace(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(e)
}

// Err returns the first write error, if any.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// MemoryTracer collects events in memory, for tests and small runs.
type MemoryTracer struct {
	events []Event
}

// Trace implements Tracer.
func (t *MemoryTracer) Trace(e Event) { t.events = append(t.events, e) }

// Events returns a copy of everything collected so far.
func (t *MemoryTracer) Events() []Event { return append([]Event(nil), t.events...) }

// Count returns how many events of the kind were seen (all kinds when
// kind is empty).
func (t *MemoryTracer) Count(kind EventKind) int {
	n := 0
	for _, e := range t.events {
		if kind == "" || e.Kind == kind {
			n++
		}
	}
	return n
}

// trace stamps e with the engine's time and emits it if a tracer is
// configured. The telemetry counter fires regardless of the Tracer, so
// /metrics shows lifecycle rates even when nobody captures the full event
// stream. e travels by value, so emitting allocates nothing of its own.
func (vo *VO) trace(e Event) {
	vo.cfg.Telemetry.Counter("grid_metasched_events_total",
		"VO lifecycle events by kind", telemetry.L("kind", string(e.Kind))).Inc()
	if vo.cfg.Tracer == nil {
		return
	}
	e.At = vo.engine.Now()
	vo.cfg.Tracer.Trace(e)
}
