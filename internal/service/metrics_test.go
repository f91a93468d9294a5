package service

import (
	"context"
	"encoding/json"
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

// v1Metrics reads GET /v1/metrics.
func v1Metrics(t *testing.T, h http.Handler) Metrics {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var m Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("GET /v1/metrics = %d: %v", rec.Code, err)
	}
	return m
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

// TestMetricsFieldsAreTheirSeries: on the shard tier every JSON counter —
// each counter field of GET /v1/metrics, of the journal's Stats and of a
// breaker's Trips and Failures — is a read of one series, so after a
// lifecycle that moves every one of them each equals its sample on
// GET /metrics. The server, its journal and its breakers share one
// registry, as gridd wires them.
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

	h := s.Handler()
	m, samples, st := v1Metrics(t, h), scrape(t, h), jnl.Stats()
	type row struct {
		field  string
		value  float64
		series string // a breaker family without labels is summed
	}
	rows := []row{
		{"Submitted", float64(m.Submitted), "grid_service_submitted_total"},
		{"Accepted", float64(m.Accepted), "grid_service_accepted_total"},
		{"Completed", float64(m.Completed), "grid_service_completed_total"},
		{"Rejected", float64(m.Rejected), "grid_service_rejected_total"},
		{"Shed", float64(m.Shed), "grid_service_shed_total"},
		{"Infeasible", float64(m.Infeasible), "grid_service_infeasible_total"},
		{"Overloaded", float64(m.Overloaded), "grid_service_overloaded_total"},
		{"Drained", float64(m.Drained), "grid_service_drained_total"},
		{"Revoked", float64(m.Revoked), "grid_service_revoked_total"},
		{"Resurrected", float64(m.Resurrected), "grid_service_resurrected_total"},
		{"JournalErrors", float64(m.JournalErrors), "grid_service_journal_errors_total"},
		{"QueueHighWater", float64(m.QueueHighWater), "grid_service_queue_high_water"},
		{"EngineNow", float64(m.EngineNow), "grid_service_engine_now"},
		{"EventsFired", float64(m.EventsFired), "grid_service_engine_events_fired"},
		{"BreakerTrips", float64(m.BreakerTrips), "grid_breaker_trips_total"},
		{"journal Appends", float64(st.Appends), "grid_journal_appends_total"},
		{"journal Fsyncs", float64(st.Fsyncs), "grid_journal_fsyncs_total"},
		{"journal Rotations", float64(st.Rotations), "grid_journal_rotations_total"},
		{"journal Compactions", float64(st.Compactions), "grid_journal_compactions_total"},
	}
	for name := range s.BreakerStates() {
		b, l := s.breakers.Get(name), `{name="`+name+`"}`
		rows = append(rows,
			row{name + " Trips", float64(b.Trips()), "grid_breaker_trips_total" + l},
			row{name + " Failures", float64(b.Failures()), "grid_breaker_failures_total" + l})
	}
	for _, f := range rows {
		sample, ok := samples[f.series]
		if f.series == "grid_breaker_trips_total" {
			sample, ok = sumFamily(samples, f.series), true
		}
		switch {
		case !ok:
			t.Errorf("%s = %v has no series %s", f.field, f.value, f.series)
		case f.value != sample:
			t.Errorf("%s = %v, its series %s = %v", f.field, f.value, f.series, sample)
		case f.value == 0:
			t.Errorf("%s never moved: the lifecycle must move every counter", f.field)
		}
	}
}

// TestV1MetricsReportsBreakers: GET /v1/metrics reports the breakers on its
// own. It used to carry their trips and states only after a caller had run
// BreakerStates on the engine goroutine, which gridd never does, so a live
// daemon reported breakerTrips 0 and no states while GET /metrics showed
// the trips.
func TestV1MetricsReportsBreakers(t *testing.T) {
	s := newServer(t, failingDomains(Config{QueueCap: 64}))
	for i := 0; i < 12; i++ {
		if _, err := s.Submit(wireJob(fmt.Sprintf("f%d", i), 200), "S1", 0); err != nil {
			t.Fatal(err)
		}
		s.Process(1)
		s.Quiesce()
	}
	h := s.Handler()
	m, samples := v1Metrics(t, h), scrape(t, h)
	if trips := sumFamily(samples, "grid_breaker_trips_total"); m.BreakerTrips == 0 || float64(m.BreakerTrips) != trips {
		t.Errorf("breakerTrips = %d, grid_breaker_trips_total sums to %v", m.BreakerTrips, trips)
	}
	if len(m.Breakers) != 2 || m.Breakers["dom-0"] != "open" || m.Breakers["dom-1"] != "open" {
		t.Errorf("breakers = %v, want both domains open", m.Breakers)
	}
}

// TestMetricsPollDuringBreakerTrips polls GET /v1/metrics from handler
// goroutines while the engine goroutine trips the breakers it reads; the
// race detector is the main assertion (CI runs it under -race).
func TestMetricsPollDuringBreakerTrips(t *testing.T) {
	s := newServer(t, failingDomains(Config{QueueCap: 64}))
	h := s.Handler()
	s.Start()
	stop := make(chan struct{})
	polled := make(chan Metrics)
	for w := 0; w < 4; w++ {
		go func() {
			var last Metrics
			for {
				select {
				case <-stop:
					polled <- last
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
				if err := json.Unmarshal(rec.Body.Bytes(), &last); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for i := 0; i < 12; i++ {
		if _, err := s.Submit(wireJob(fmt.Sprintf("f%d", i), 200), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	for s.Metrics().Rejected+s.Metrics().Completed < 12 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	for w := 0; w < 4; w++ {
		if m := <-polled; m.BreakerTrips > 2 {
			t.Errorf("a poll read %d trips; two breakers that never close trip once each", m.BreakerTrips)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.BreakerTrips != 2 {
		t.Errorf("breakerTrips = %d after the run, want 2", m.BreakerTrips)
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

// BenchmarkLegacyJSON measures the old JSON handler, which re-marshals
// its whole counters struct on every poll — kept as the baseline the
// Prometheus endpoint's per-series cost is judged against (the registry
// exposes ~20× more series than the legacy snapshot's eight fields).
func BenchmarkLegacyJSON(b *testing.B) {
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
	req := httptest.NewRequest("GET", "/v1/metrics", nil)

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
