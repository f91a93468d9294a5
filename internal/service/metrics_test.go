package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// TestPrometheusEndpoint scrapes GET /metrics after a short job lifecycle
// and checks the exposition: the content type, and the scheduler-layer
// families showing up through the shared registry.
// TestMetricsFieldsAreTheirSeries checks the counters' values.
func TestPrometheusEndpoint(t *testing.T) {
	s := newServer(t, Config{QueueCap: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Submit(wireJob("m1", 60), "S1", 0); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := s.Submit(wireJob("m2", 60), "S1", 0); err != nil {
		t.Fatalf("submit: %v", err)
	}
	s.Process(2)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// The scheduler layer reports into the same registry the server owns.
	for _, family := range []string{
		"grid_metasched_events_total",
		"grid_criticalworks_builds_total",
		"grid_service_queue_wait_seconds_count",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition missing scheduler family %q\n%s", family, text)
		}
	}
}

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

// tally is the server's counters and queue gauges, read from its registry
// handles: the accounting the tests check, which clients read on
// GET /metrics.
type tally struct {
	Submitted, Accepted, Completed, Rejected uint64
	Shed, Infeasible, Overloaded, Drained    uint64
	Revoked                                  uint64
	QueueDepth, QueueHighWater               int
	EngineNow                                simtime.Time
}

// readTally reads the tally under s.mu, where the counters move, so it sees
// every transition whole.
func readTally(s *Server) tally {
	th := &s.th
	s.mu.Lock()
	defer s.mu.Unlock()
	return tally{
		Submitted: th.submitted.Value(), Accepted: th.accepted.Value(),
		Completed: th.completed.Value(), Rejected: th.rejected.Value(),
		Shed: th.shed.Value(), Infeasible: th.infeasible.Value(),
		Overloaded: th.overloaded.Value(), Drained: th.drained.Value(),
		Revoked:    th.revoked.Value(),
		QueueDepth: int(th.queueDepth.Value()), QueueHighWater: int(th.queueHighWater.Value()),
		EngineNow: simtime.Time(th.engineNow.Value()),
	}
}

// journalFailures adds up the grid_journal_failures_total samples a server
// serves: its journal's failed calls when the two share a registry.
func journalFailures(t *testing.T, s *Server) float64 {
	t.Helper()
	return sumFamily(scrape(t, s.Handler()), "grid_journal_failures_total")
}

// sumFamily adds up a labelled family's samples.
func sumFamily(samples map[string]float64, name string) float64 {
	var sum float64
	for k, v := range samples {
		if strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// failingDomains is TestBreakerQuarantinesFailingDomain's world: every
// activation loses a task, and two consecutive failures open a domain's
// breaker for good.
func failingDomains(cfg Config) Config {
	cfg.Breaker = &breaker.Config{Threshold: 2, OpenBase: 10000, OpenMax: 10000}
	cfg.Sched = metasched.Config{Seed: 1, Faults: faults.Config{TaskFailRate: 1.0, Seed: 7}}
	return cfg
}

// TestMetricsFieldsAreTheirSeries: each Metrics field is a read of one
// series, so after a lifecycle that moves every counter the service, its
// journal and its breakers keep — sharing one registry, as gridd wires them
// — each field equals its sample on GET /metrics, and every other counter
// shows on GET /metrics, moved.
func TestMetricsFieldsAreTheirSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), IsTerminal: Terminal,
		SegmentBytes: 512, CompactEvery: 4, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfg := failingDomains(Config{QueueCap: 2, Journal: jnl, Telemetry: reg})
	cfg.Sched.Faults.TaskFailRate = 0.5 // some jobs complete before the breakers open
	s := newServer(t, cfg)
	submit := func(id string, deadline int64, prio, epoch int, code string) {
		t.Helper()
		if _, err := s.SubmitEpoch(wireJob(id, deadline), "S1", prio, epoch); submitCode(err) != code {
			t.Fatalf("submit %s: %v, want %q", id, err, code)
		}
	}
	submit("a", 60, 0, 0, "")
	submit("b", 60, 0, 0, "")
	submit("c", 60, 0, 0, CodeOverloaded)
	submit("d", 60, 1, 0, "") // sheds b
	submit("tight", 3, 0, 0, CodeInfeasible)
	if _, err := s.RevokeEpoch("a", "moved", 1); err != nil {
		t.Fatal(err)
	}
	submit("a", 60, 0, 2, "") // a new life over the tombstone
	for i := 0; i <= 12; i++ {
		s.Process(-1)
		s.Quiesce()
		if i < 12 {
			submit(fmt.Sprintf("f%d", i), 200, 0, 0, "")
		}
	}
	submit("late", 60, 0, 0, "")
	jnl.Close()
	if _, err := s.RevokeEpoch("ghost", "moved", 1); err != nil { // a journal error
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err == nil {
		t.Fatal("drain compacted a closed journal")
	}

	m, samples := s.Metrics(), scrape(t, s.Handler())
	for _, f := range []struct {
		field  string
		value  uint64
		series string
	}{
		{"Accepted", m.Accepted, "grid_service_accepted_total"},
		{"Completed", m.Completed, "grid_service_completed_total"},
		{"Rejected", m.Rejected, "grid_service_rejected_total"},
		{"Drained", m.Drained, "grid_service_drained_total"},
		{"Shed", m.Shed, "grid_service_shed_total"},
		{"EventsFired", m.EventsFired, "grid_service_engine_events_fired"},
	} {
		sample, ok := samples[f.series]
		switch {
		case !ok:
			t.Errorf("%s = %v has no series %s", f.field, f.value, f.series)
		case float64(f.value) != sample:
			t.Errorf("%s = %v, its series %s = %v", f.field, f.value, f.series, sample)
		case f.value == 0:
			t.Errorf("%s never moved: the lifecycle must move every counter", f.field)
		}
	}
	moved := []string{
		"grid_service_submitted_total", "grid_service_infeasible_total",
		"grid_service_overloaded_total", "grid_service_revoked_total",
		"grid_service_resurrected_total", `grid_journal_failures_total{op="append"}`,
		"grid_service_queue_high_water", "grid_service_engine_now",
		"grid_journal_appends_total", "grid_journal_fsyncs_total",
		"grid_journal_rotations_total", "grid_journal_compactions_total",
	}
	for name := range s.BreakerStates() {
		l := `{name="` + name + `"}`
		moved = append(moved, "grid_breaker_trips_total"+l, "grid_breaker_failures_total"+l)
	}
	for _, series := range moved {
		if samples[series] == 0 {
			t.Errorf("%s never moved: the lifecycle must move every counter", series)
		}
	}
}

// TestPrometheusReportsBreakers: GET /metrics reports each domain breaker's
// trips and state on its own, with no caller on the engine goroutine — which
// gridd never has — reading the breakers first.
func TestPrometheusReportsBreakers(t *testing.T) {
	s := newServer(t, failingDomains(Config{QueueCap: 64}))
	for i := 0; i < 12; i++ {
		if _, err := s.Submit(wireJob(fmt.Sprintf("f%d", i), 200), "S1", 0); err != nil {
			t.Fatal(err)
		}
		s.Process(1)
		s.Quiesce()
	}
	samples := scrape(t, s.Handler())
	for _, name := range []string{"dom-0", "dom-1"} {
		l := `{name="` + name + `"}`
		if trips := samples["grid_breaker_trips_total"+l]; trips != 1 {
			t.Errorf("grid_breaker_trips_total%s = %v, want 1: the breaker never closes", l, trips)
		}
		if state := samples["grid_breaker_state"+l]; state != float64(breaker.Open) {
			t.Errorf("grid_breaker_state%s = %v, want %d (open)", l, state, breaker.Open)
		}
	}
}

// TestMetricsPollDuringBreakerTrips polls GET /metrics from handler
// goroutines while the engine goroutine trips the breakers whose gauges and
// counters it reads; the race detector is the main assertion (CI runs it
// under -race).
func TestMetricsPollDuringBreakerTrips(t *testing.T) {
	s := newServer(t, failingDomains(Config{QueueCap: 64}))
	h := s.Handler()
	s.Start()
	stop := make(chan struct{})
	polled := make(chan float64)
	for w := 0; w < 4; w++ {
		go func() {
			var trips float64
			for {
				select {
				case <-stop:
					polled <- trips
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				trips = 0
				for _, line := range strings.Split(rec.Body.String(), "\n") {
					if strings.HasPrefix(line, "grid_breaker_trips_total{") {
						v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
						if err != nil {
							t.Error(err)
						}
						trips += v
					}
				}
			}
		}()
	}
	for i := 0; i < 12; i++ {
		if _, err := s.Submit(wireJob(fmt.Sprintf("f%d", i), 200), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	for m := s.Metrics(); m.Rejected+m.Completed < 12; m = s.Metrics() {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	for w := 0; w < 4; w++ {
		if trips := <-polled; trips > 2 {
			t.Errorf("a poll read %v trips; two breakers that never close trip once each", trips)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if trips := breakerTrips(t, s); trips != 2 {
		t.Errorf("grid_breaker_trips_total sums to %v after the run, want 2", trips)
	}
}

// BenchmarkMetricsScrape backs the rebuild-per-scrape fix: the Prometheus
// endpoint streams straight from the registry's live atomics into the
// response writer — no intermediate metrics document is rebuilt per poll,
// so scrape cost is a function of series count only, never of how much
// traffic moved the counters. The allocs/op figure is the regression
// guard; it must stay bounded as instrumentation grows.
func BenchmarkMetricsScrape(b *testing.B) {
	s, err := New(Config{Env: testEnv(), QueueCap: 64})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := s.Submit(wireJob(benchName(i), 60), "S1", i%3); err != nil {
			b.Fatalf("submit: %v", err)
		}
	}
	s.Process(32)
	h := s.Handler()
	req := httptest.NewRequest("GET", "/metrics", nil)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("scrape = %d", rec.Code)
		}
	}
}

func benchName(i int) string { return "bench-" + strconv.Itoa(i) }
