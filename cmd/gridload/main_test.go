package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/metasched"
	"repro/internal/scalereport"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// testOptions is a small overload scenario: burst 8 vs proc 5 builds
// backlog against a 16-slot queue, so shedding, 429s and drain-under-load
// all occur within 120 jobs.
func testOptions() options {
	return options{
		mode: "inprocess", seed: 1, jobs: 120,
		arrival: workload.ProcBursty,
		spec:    workload.ArrivalSpec{Kind: workload.ProcBursty},
		mean:    12, strategy: "S1", priorities: 3, domains: 2,
		queue: 16, burst: 8, proc: 5,
	}
}

// TestInProcessDeterministic is the determinism bar CI holds the in-process
// service to, at both placement widths: two same-seed runs agree on every
// deterministic field (at placers 4 that includes the pipelines' commit
// counter) and a different seed does not. The CI
// `test` job runs it under -race.
func TestInProcessDeterministic(t *testing.T) {
	for _, placers := range []int{0, 4} {
		t.Run(fmt.Sprintf("placers=%d", placers), func(t *testing.T) {
			opts := func(seed uint64) options {
				o := testOptions()
				o.seed, o.placers = seed, placers
				return o
			}
			a, err := run(opts(1))
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(opts(1))
			if err != nil {
				t.Fatal(err)
			}
			if diffs := scalereport.CompareDeterministic(a, b); len(diffs) != 0 {
				t.Errorf("same-seed runs diverge: %v", diffs)
			}
			if placers > 1 && a.Deterministic.PlacerCommits == 0 {
				t.Error("the scenario never booked a plan through a placement pipeline")
			}
			// A different seed must actually change the outcome.
			c, err := run(opts(2))
			if err != nil {
				t.Fatal(err)
			}
			if diffs := scalereport.CompareDeterministic(a, c); len(diffs) == 0 {
				t.Error("seed change produced an identical deterministic section")
			}
		})
	}
}

func TestInProcessInvariants(t *testing.T) {
	rep, err := run(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Deterministic
	if d.Submitted != 120 {
		t.Errorf("submitted = %d, want 120", d.Submitted)
	}
	// Every client-observed outcome matches the server's own counters.
	if uint64(d.ClientAccepted) != d.Accepted {
		t.Errorf("client accepted %d != server accepted %d", d.ClientAccepted, d.Accepted)
	}
	if uint64(d.Client429) != d.Overloaded {
		t.Errorf("client 429s %d != server overloaded %d", d.Client429, d.Overloaded)
	}
	if d.RetryAfterViolations != 0 {
		t.Errorf("%d overload responses lacked a usable Retry-After", d.RetryAfterViolations)
	}
	// The scenario genuinely exercises the overload machinery.
	if d.Completed == 0 || d.Client429 == 0 || d.Drained == 0 {
		t.Errorf("scenario too tame: %+v", d)
	}
	// Accepted jobs end completed, drained, shed or rejected-in-flight
	// (deadline misses at schedule time) — nowhere else. Rejected also
	// counts infeasible submit-time refusals and sheds, so subtract both.
	if d.Completed+d.Drained+(d.Rejected-d.Infeasible) != d.Accepted {
		t.Errorf("accepted %d != completed %d + drained %d + shed %d + in-flight rejects %d",
			d.Accepted, d.Completed, d.Drained, d.Shed, d.Rejected-d.Infeasible-d.Shed)
	}
	var terminalTotal uint64
	for _, n := range d.TerminalByState {
		terminalTotal += n
	}
	if terminalTotal == 0 {
		t.Error("terminal-state stream saw nothing")
	}
	if rep.Wall.ElapsedSeconds <= 0 {
		t.Error("wall elapsed not measured")
	}
}

func TestRunValidation(t *testing.T) {
	o := testOptions()
	o.jobs = 0
	if _, err := run(o); err == nil {
		t.Error("jobs=0 accepted")
	}
	o = testOptions()
	o.mode = "teleport"
	if _, err := run(o); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestHTTPMode drives the real wire path end to end: a live engine-loop
// server behind httptest, open-loop submission, terminal polling, counter
// diffing and the /metrics histogram scrape.
func TestHTTPMode(t *testing.T) {
	gen := workload.New(workload.Default(7))
	srv, err := service.New(service.Config{
		Env:       gen.Environment(2),
		QueueCap:  8,
		Telemetry: telemetry.NewRegistry(),
		Sched:     metasched.Config{Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()

	o := testOptions()
	o.mode = "http"
	o.targets = []string{ts.URL}
	o.jobs = 40
	o.seed = 7
	o.honorRetry = false // no wall-clock backoff sleeps in tests
	o.tick = 0           // fire the whole schedule immediately
	o.wait = 20 * time.Second
	rep, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Deterministic
	if d.Submitted != 40 {
		t.Errorf("server saw %d submissions, want 40", d.Submitted)
	}
	if uint64(d.ClientAccepted) != d.Accepted {
		t.Errorf("client accepted %d != server accepted %d", d.ClientAccepted, d.Accepted)
	}
	if d.RetryAfterViolations != 0 {
		t.Errorf("%d overload responses lacked a usable Retry-After", d.RetryAfterViolations)
	}
	if d.ClientAccepted == 0 {
		t.Error("nothing was accepted")
	}
	if len(rep.Deterministic.TerminalByState) == 0 {
		t.Error("no accepted job reached a terminal state within the wait")
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
	if len(bounds) != 3 || bounds[0] != 0.01 || bounds[1] != 0.1 || bounds[2] != infBound {
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
	bounds := []float64{0.01, 0.1, infBound}
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
