package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/metasched"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// testOptions offers a small bursty flow to the given targets all at once
// (tick 0), without Retry-After sleeps.
func testOptions(targets ...string) options {
	return options{
		targets: targets, seed: 7, jobs: 40,
		arrival:  workload.ProcBursty,
		spec:     workload.ArrivalSpec{Kind: workload.ProcBursty},
		mean:     12,
		strategy: "S1", priorities: 3,
		wait: 20 * time.Second,
	}
}

// newTestServer starts an engine-loop server behind httptest and drains
// it when the test ends.
func newTestServer(t *testing.T, queue int, seed uint64) (*service.Server, string) {
	t.Helper()
	gen := workload.New(workload.Default(7))
	srv, err := service.New(service.Config{
		Env:       gen.Environment(2),
		QueueCap:  queue,
		Telemetry: telemetry.NewRegistry(),
		Sched:     metasched.Config{Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
		ts.Close()
	})
	return srv, ts.URL
}

func TestRunValidation(t *testing.T) {
	o := testOptions("http://127.0.0.1:1")
	o.jobs = 0
	if _, err := run(o); err == nil {
		t.Error("jobs=0 accepted")
	}
	if _, err := run(testOptions()); err == nil {
		t.Error("a run without targets accepted")
	}
}

// TestHTTPMode drives the real wire path end to end: a live engine-loop
// server behind httptest, open-loop submission, terminal polling, counter
// diffing and the /metrics histogram scrape.
func TestHTTPMode(t *testing.T) {
	_, url := newTestServer(t, 8, 7)
	rep, err := run(testOptions(url))
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Counts
	if c.Submitted != 40 {
		t.Errorf("server saw %d submissions, want 40", c.Submitted)
	}
	if uint64(c.ClientAccepted) != c.Accepted {
		t.Errorf("client accepted %d != server accepted %d", c.ClientAccepted, c.Accepted)
	}
	if c.RetryAfterViolations != 0 {
		t.Errorf("%d overload responses lacked a usable Retry-After", c.RetryAfterViolations)
	}
	if c.ClientAccepted == 0 {
		t.Error("nothing was accepted")
	}
	if len(c.TerminalByState) == 0 {
		t.Error("no accepted job reached a terminal state within the wait")
	}
}

// TestHTTPModeCountsOnlyItsOwnTicks runs twice against one daemon, the
// second time with 20 more jobs than the first (its first 20 are refused as
// duplicates): the second report's engine ticks are the model time that
// run advanced, not the daemon's clock, and its goodput is per those ticks.
func TestHTTPModeCountsOnlyItsOwnTicks(t *testing.T) {
	_, url := newTestServer(t, 64, 7)
	first := testOptions(url)
	first.jobs = 20
	if _, err := run(first); err != nil {
		t.Fatal(err)
	}
	engineNow := func() int64 {
		t.Helper()
		m, err := scrapeFleet(http.DefaultClient, []string{url})
		if err != nil {
			t.Fatal(err)
		}
		return m.engineNow
	}
	before := engineNow()
	if before == 0 {
		t.Fatal("the first run advanced no model time")
	}
	rep, err := run(testOptions(url))
	if err != nil {
		t.Fatal(err)
	}
	after := engineNow()
	c := rep.Counts
	if c.EngineTicks <= 0 || c.EngineTicks > after-before {
		t.Fatalf("engine ticks = %d, want the second run's share of %d → %d", c.EngineTicks, before, after)
	}
	if want := float64(c.Completed) * 1000 / float64(c.EngineTicks); c.GoodputPerKTicks != want {
		t.Errorf("goodput %v jobs/ktick, but %d completions over %d ticks is %v", c.GoodputPerKTicks, c.Completed, c.EngineTicks, want)
	}
}

func TestParseBuckets(t *testing.T) {
	scrape := `# HELP grid_service_queue_wait_seconds x
# TYPE grid_service_queue_wait_seconds histogram
grid_service_queue_wait_seconds_bucket{le="0.01"} 3
grid_service_queue_wait_seconds_bucket{le="0.1"} 9
grid_service_queue_wait_seconds_bucket{le="+Inf"} 10
grid_service_queue_wait_seconds_sum 1.5
grid_service_queue_wait_seconds_count 10
other_metric_bucket{le="1"} 5
`
	bounds, cums, err := parseBuckets(scrape, "grid_service_queue_wait_seconds_bucket")
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 3 || bounds[0] != 0.01 || bounds[1] != 0.1 || !math.IsInf(bounds[2], 1) {
		t.Errorf("bounds = %v", bounds)
	}
	if cums[0] != 3 || cums[1] != 9 || cums[2] != 10 {
		t.Errorf("cums = %v", cums)
	}
	if _, _, err := parseBuckets("nothing here", "grid_service_queue_wait_seconds_bucket"); err == nil {
		t.Error("empty scrape parsed")
	}
	if _, _, err := parseBuckets(`x_bucket{le="oops"} 1`, "x_bucket"); err == nil {
		t.Error("bad le parsed")
	}
	if _, _, err := parseBuckets(`x_bucket{le="1"} zzz`, "x_bucket"); err == nil {
		t.Error("bad count parsed")
	}
}

func TestBucketQuantile(t *testing.T) {
	bounds := []float64{0.01, 0.1, math.Inf(1)}
	cums := []uint64{3, 9, 10}
	// Median: rank 5 lands in (0.01, 0.1], frac (5-3)/6.
	if got, want := bucketQuantile(bounds, cums, 0.5), 0.01+(0.1-0.01)*(2.0/6.0); got != want {
		t.Errorf("median = %v, want %v", got, want)
	}
	// p99 lands in the +Inf bucket and clamps to the highest finite bound.
	if got := bucketQuantile(bounds, cums, 0.99); got != 0.1 {
		t.Errorf("p99 = %v, want 0.1", got)
	}
	if got := bucketQuantile(nil, nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := bucketQuantile(bounds, []uint64{0, 0, 0}, 0.5); got != 0 {
		t.Errorf("all-zero = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	s := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.99, 5}, {0.2, 1},
	}
	for _, c := range cases {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be mutated (callers keep their sample slices).
	if s[0] != 5 {
		t.Error("percentile sorted the caller's slice")
	}
}
