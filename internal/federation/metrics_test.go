package federation

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// scrape reads GET /metrics into its samples, keyed by the series as the
// exposition prints it: name or name{labels}.
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// closed reads a shard's grid_breaker_state gauge on GET /metrics: 0 while
// the router's breaker for it is closed, the only state in which the router
// binds jobs to the shard.
func closed(t *testing.T, r *Router, shard string) bool {
	t.Helper()
	state, ok := scrape(t, r.Handler())[`grid_breaker_state{name="`+shard+`"}`]
	if !ok {
		t.Fatalf("no grid_breaker_state series for shard %s", shard)
	}
	return state == 0
}

// TestRouterMetricsAreTheirSeries: each Metrics field is a read of one
// series, so after a lifecycle that moves every counter the router, its
// journal and its shard breakers keep — the router and its journal sharing
// one registry, as gridfront wires them, the breakers getting the router's —
// each field equals its sample on GET /metrics, and every other counter
// shows on GET /metrics, moved.
func TestRouterMetricsAreTheirSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), IsTerminal: service.Terminal,
		SegmentBytes: 256, CompactEvery: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	fleet := [2]*scriptShard{{name: "s0"}, {name: "s1"}}
	r, err := New(Config{
		Shards: []ShardClient{fleet[0], fleet[1]}, Seed: 1, Journal: jnl, Telemetry: reg,
		RetryBudget: 2, RetryBase: time.Millisecond, RetryCap: time.Millisecond,
		Breaker: breaker.Config{Threshold: 1, OpenBase: time.Hour.Milliseconds(), OpenMax: time.Hour.Milliseconds()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	answer := func(answers ...*HandoffResult) {
		for _, s := range fleet {
			s.handoff = func() (*HandoffResult, error) {
				res := answers[0]
				if len(answers) > 1 {
					answers = answers[1:]
				}
				if res == nil {
					return nil, errUnreachable
				}
				return res, nil
			}
		}
	}
	submit := func(id string) {
		t.Helper()
		if _, err := r.Submit(testJob(id, 60), "S1", 0); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}
	accepted := &HandoffResult{Accepted: true, State: service.StateQueued}
	shardOf := func(id string) string { v, _ := r.Job(id); return v.Shard }

	submit("done")
	if _, err := r.Submit(testJob("bad", 60), "NOPE", 0); err == nil {
		t.Fatal("an unknown strategy was accepted")
	}
	answer(&HandoffResult{Code: service.CodeOverloaded}, accepted) // a retry
	r.dispatch("done", 0)
	r.dispatch("done", 0)
	r.HandleTerminal(&TerminalNotice{Shard: shardOf("done"), Job: "done", State: service.StateCompleted})

	submit("refused")
	answer(&HandoffResult{Code: service.CodeInfeasible, Reason: "deadline too tight"})
	r.dispatch("refused", 0)

	submit("moved")
	answer(accepted)
	r.dispatch("moved", 0)
	r.beginRevoke("moved", "test: binding in doubt")
	r.resolveRevoke("moved", shardOf("moved"), &RevokeResult{Outcome: RevokeOutcomeRevoked, State: service.StateRevoked})

	// Transport errors trip the breaker of the shard each job binds to,
	// which declares the shard dead; the second job finds the first one's
	// breaker open and trips the other.
	answer(nil)
	for _, id := range []string{"lost-0", "lost-1"} {
		submit(id)
		r.dispatch(id, 0)
	}

	jnl.Close()
	if _, err := r.Submit(testJob("unjournaled", 60), "S1", 0); err == nil {
		t.Fatal("a submission the journal could not take was accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.Drain(ctx) // drains "moved", queued again since its revocation

	m, samples := r.Metrics(), scrape(t, r.Handler())
	moved := []string{
		"grid_journal_appends_total", "grid_journal_fsyncs_total",
		"grid_journal_rotations_total", "grid_journal_compactions_total",
	}
	for name, c := range routerCounters {
		if c.field == nil {
			moved = append(moved, c.series)
			continue
		}
		sample, ok := samples[c.series]
		switch value := c.field(m); {
		case !ok:
			t.Errorf("%s = %d has no series %s", name, value, c.series)
		case float64(value) != sample:
			t.Errorf("%s = %d, its series %s = %v", name, value, c.series, sample)
		case value == 0:
			t.Errorf("%s never moved: the lifecycle must move every counter", name)
		}
	}
	for _, name := range []string{"s0", "s1"} {
		l := `{name="` + name + `"}`
		moved = append(moved, "grid_breaker_trips_total"+l, "grid_breaker_failures_total"+l)
	}
	for _, series := range moved {
		if samples[series] == 0 {
			t.Errorf("%s never moved: the lifecycle must move every counter", series)
		}
	}
}

// TestRouterWithoutTelemetryServesMetrics: a router built without
// Config.Telemetry owns a private registry, as a shard does, so GET /metrics
// answers 200 with the grid_fed_* families instead of 404, and Metrics
// still counts.
func TestRouterWithoutTelemetryServesMetrics(t *testing.T) {
	r, err := New(Config{Shards: []ShardClient{&scriptShard{name: "s0"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Submit(testJob("j", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	samples := scrape(t, r.Handler())
	if m := r.Metrics(); m.Accepted != 1 {
		t.Errorf("Metrics = %+v, want one accepted", m)
	}
	for _, series := range []string{"grid_fed_submitted_total", "grid_fed_accepted_total", "grid_fed_jobs_pending"} {
		if samples[series] != 1 {
			t.Errorf("%s = %v, want 1", series, samples[series])
		}
	}
}

// TestHandlePingAllocs: a router pings each shard four times a second. The
// heartbeat reads the three fields it sends — draining, queue depth, held
// jobs — and encodes them in two allocations. It builds no metrics snapshot
// and no breaker map, though the shard here has both domain breakers armed.
func TestHandlePingAllocs(t *testing.T) {
	if raceDetectorOn() {
		t.Skip("sync.Pool drops items at random under -race; the ceiling holds for the plain build")
	}
	svc, err := service.New(service.Config{Env: testEnv(), Breaker: &breaker.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(testJob("j", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	svc.Process(-1)
	svc.Quiesce()
	if n := len(svc.BreakerStates()); n != 2 {
		t.Fatalf("%d domain breakers, want 2", n)
	}
	m := NewMember(MemberConfig{Shard: "s0"})
	m.Bind(svc)
	req := httptest.NewRequest(http.MethodGet, "/v1/federation/ping", nil)
	w := &discardResponse{h: http.Header{}}
	ping := func() { m.handlePing(w, req) }
	ping()
	if got := testing.AllocsPerRun(500, ping); got > 2 {
		t.Errorf("a heartbeat allocates %.0f times, ceiling 2", got)
	}
}
