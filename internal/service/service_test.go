package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/faults"
	"repro/internal/jobio"
	"repro/internal/metasched"
	"repro/internal/resource"
)

// testEnv builds the usual two-domain, four-tier environment.
func testEnv() *resource.Environment {
	perfs := []float64{1.0, 0.5, 0.33, 0.27}
	var nodes []*resource.Node
	id := 0
	for d := 0; d < 2; d++ {
		for _, p := range perfs {
			nodes = append(nodes, resource.NewNode(resource.NodeID(id),
				fmt.Sprintf("n%d", id), p, fmt.Sprintf("dom-%d", d)))
			id++
		}
	}
	return resource.NewEnvironment(nodes)
}

// wireJob is a two-task job whose fastest-tier critical path is 5 ticks.
func wireJob(name string, deadline int64) jobio.Job {
	return jobio.Job{
		Name:     name,
		Deadline: deadline,
		Tasks: []jobio.Task{
			{Name: "A", BaseTime: 2, Volume: 10},
			{Name: "B", BaseTime: 3, Volume: 15},
		},
		Edges: []jobio.Edge{{Name: "d", From: "A", To: "B", BaseTime: 1, Volume: 5}},
	}
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Env == nil {
		cfg.Env = testEnv()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func submitCode(err error) string {
	var se *SubmitError
	if errors.As(err, &se) {
		return se.Code
	}
	return ""
}

func TestManualModeCompletesJobs(t *testing.T) {
	s := newServer(t, Config{})
	for i := 0; i < 5; i++ {
		if _, err := s.Submit(wireJob(fmt.Sprintf("j%d", i), 60), "S1", 0); err != nil {
			t.Fatalf("submit j%d: %v", i, err)
		}
	}
	if n := s.Process(-1); n != 5 {
		t.Fatalf("processed %d, want 5", n)
	}
	s.Quiesce()
	for _, rec := range s.Jobs() {
		if rec.State != StateCompleted {
			t.Errorf("%s: state %q (%s), want completed", rec.ID, rec.State, rec.Reason)
		}
		if rec.Domain == "" || rec.Finish == 0 {
			t.Errorf("%s: record not filled in: %+v", rec.ID, rec)
		}
	}
	m := s.Metrics()
	if m.Completed != 5 || m.Accepted != 5 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestAdmissionControl(t *testing.T) {
	s := newServer(t, Config{})

	// Invalid wire form.
	bad := wireJob("bad", 60)
	bad.Tasks[1].Name = "A" // duplicate task name
	if _, err := s.Submit(bad, "S1", 0); submitCode(err) != CodeInvalid {
		t.Fatalf("duplicate task name: err = %v", err)
	}
	// Unknown strategy family.
	if _, err := s.Submit(wireJob("s9", 60), "S9", 0); submitCode(err) != CodeInvalid {
		t.Fatal("unknown strategy accepted")
	}
	// Provably-unmeetable deadline: critical path is 5.
	rec, err := s.Submit(wireJob("tight", 4), "S1", 0)
	if submitCode(err) != CodeInfeasible {
		t.Fatalf("infeasible deadline: err = %v", err)
	}
	if rec == nil || rec.State != StateRejected {
		t.Fatalf("infeasible job not ledgered as rejected: %+v", rec)
	}
	// The boundary deadline is admitted.
	if _, err := s.Submit(wireJob("exact", 5), "S1", 0); err != nil {
		t.Fatalf("boundary deadline rejected: %v", err)
	}
	// Duplicate IDs: of a queued job, and of a terminal one.
	if _, err := s.Submit(wireJob("exact", 60), "S1", 0); submitCode(err) != CodeDuplicate {
		t.Fatal("duplicate of queued job accepted")
	}
	if _, err := s.Submit(wireJob("tight", 60), "S1", 0); submitCode(err) != CodeDuplicate {
		t.Fatal("duplicate of rejected job accepted")
	}
	m := readTally(s)
	if m.Infeasible != 1 || m.Rejected != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestOverloadBoundAndShedding drives the queue past its bound without
// processing anything: the depth must never exceed the cap, equal-or-lower
// priority arrivals must bounce with a retry hint, and a higher-priority
// arrival must displace the least important queued job.
func TestOverloadBoundAndShedding(t *testing.T) {
	scenario := func() ([]Record, tally) {
		s := newServer(t, Config{QueueCap: 4})
		for i := 0; i < 4; i++ {
			if _, err := s.Submit(wireJob(fmt.Sprintf("base%d", i), 60), "S1", 1); err != nil {
				t.Fatalf("fill %d: %v", i, err)
			}
			if d := readTally(s).QueueDepth; d > 4 {
				t.Fatalf("queue depth %d exceeds cap", d)
			}
		}
		// Same priority: refused with backpressure, nothing shed.
		_, err := s.Submit(wireJob("equal", 60), "S1", 1)
		var se *SubmitError
		if !errors.As(err, &se) || se.Code != CodeOverloaded {
			t.Fatalf("equal-priority overflow: err = %v", err)
		}
		if se.RetryAfter <= 0 {
			t.Fatal("overloaded rejection carries no retry hint")
		}
		// Lower priority: also refused.
		if _, err := s.Submit(wireJob("lower", 60), "S1", 0); submitCode(err) != CodeOverloaded {
			t.Fatalf("lower-priority overflow: err = %v", err)
		}
		// Higher priority: admitted by shedding the newest of the least
		// important queued jobs (base3).
		if _, err := s.Submit(wireJob("vip", 60), "S1", 9); err != nil {
			t.Fatalf("vip refused: %v", err)
		}
		m := readTally(s)
		if m.QueueDepth != 4 || m.QueueHighWater != 4 {
			t.Fatalf("queue depth/highwater = %d/%d, want 4/4", m.QueueDepth, m.QueueHighWater)
		}
		if m.Shed != 1 || m.Overloaded != 2 {
			t.Fatalf("shed/overloaded = %d/%d", m.Shed, m.Overloaded)
		}
		shed, ok := s.Job("base3")
		if !ok || shed.State != StateRejected || shed.Reason == "" {
			t.Fatalf("shed victim record: %+v", shed)
		}
		// The survivors complete; the VIP goes first.
		s.Process(-1)
		s.Quiesce()
		return s.Jobs(), readTally(s)
	}
	recs1, m1 := scenario()
	recs2, m2 := scenario()
	if fmt.Sprintf("%+v", recs1) != fmt.Sprintf("%+v", recs2) ||
		fmt.Sprintf("%+v", m1) != fmt.Sprintf("%+v", m2) {
		t.Fatal("overload outcome is not deterministic across identical runs")
	}
	for _, rec := range recs1 {
		if !Terminal(rec.State) {
			t.Errorf("%s: non-terminal state %q", rec.ID, rec.State)
		}
	}
	vip, _ := s0(recs1, "vip")
	base0, _ := s0(recs1, "base0")
	if vip.Arrival == 0 || base0.Arrival == 0 || vip.Arrival > base0.Arrival {
		t.Errorf("vip arrival %d not before base0 arrival %d", vip.Arrival, base0.Arrival)
	}
}

func s0(recs []Record, id string) (Record, bool) {
	for _, r := range recs {
		if r.ID == id {
			return r, true
		}
	}
	return Record{}, false
}

// TestDrainSnapshotsQueuedAndFinishesInFlight drains a half-processed
// manual server: in-flight jobs complete, queued jobs land in the snapshot
// file, and no job is lost or double-counted.
func TestDrainSnapshotsQueuedAndFinishesInFlight(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "drain.json")
	s := newServer(t, Config{QueueCap: 16, SnapshotPath: snap})
	for i := 0; i < 10; i++ {
		if _, err := s.Submit(wireJob(fmt.Sprintf("j%d", i), 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Process(5) // five in flight, five still queued
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var completed, drained int
	for _, rec := range s.Jobs() {
		switch rec.State {
		case StateCompleted:
			completed++
		case StateDrained:
			drained++
		default:
			t.Errorf("%s: state %q after drain", rec.ID, rec.State)
		}
	}
	if completed != 5 || drained != 5 {
		t.Fatalf("completed/drained = %d/%d, want 5/5", completed, drained)
	}
	f, err := os.Open(snap)
	if err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	defer f.Close()
	jobs, err := jobio.ReadJobs(f)
	if err != nil {
		t.Fatalf("snapshot unreadable: %v", err)
	}
	if len(jobs) != 5 {
		t.Fatalf("snapshot holds %d jobs, want 5", len(jobs))
	}
	// Submissions after the drain are refused.
	if _, err := s.Submit(wireJob("late", 60), "S1", 0); submitCode(err) != CodeDraining {
		t.Fatalf("post-drain submit: err = %v", err)
	}
	if m := s.Metrics(); !s.Draining() || m.Drained != 5 {
		t.Fatalf("draining %v, metrics after drain: %+v", s.Draining(), m)
	}
}

// TestChaosSoak is the acceptance soak: ≥200 jobs pushed from concurrent
// submitters through a small queue into a fault-injected VO with circuit
// breakers armed, then a graceful drain. Every accepted job must end in
// exactly one terminal state, the queue must never exceed its bound, and
// the goroutine count must return to its pre-server baseline. Run with
// -race in CI.
func TestChaosSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	snap := filepath.Join(t.TempDir(), "soak-drain.json")
	s := newServer(t, Config{
		QueueCap:     8,
		SnapshotPath: snap,
		BuildTimeout: 2 * time.Second,
		Breaker:      &breaker.Config{Threshold: 3, OpenBase: 50, OpenMax: 800, JitterFrac: 0.2, Seed: 11},
		Sched: metasched.Config{
			Seed: 42,
			Faults: faults.Config{
				MTBF:             400,
				MTTR:             60,
				DomainOutageProb: 0.15,
				TaskFailRate:     0.15,
				MaxRetries:       2,
				RetryBackoff:     4,
				JitterFrac:       0.25,
				Until:            200000,
				Seed:             43,
			},
		},
	})
	s.Start()

	const submitters = 4
	const perSubmitter = 60 // 240 jobs ≥ the 200-job floor
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted, bounced := 0, 0
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				name := fmt.Sprintf("soak-%d-%d", w, i)
				for attempt := 0; ; attempt++ {
					_, err := s.Submit(wireJob(name, 80), "S1", i%3)
					if err == nil {
						mu.Lock()
						accepted++
						mu.Unlock()
						break
					}
					code := submitCode(err)
					if code == CodeOverloaded && attempt < 50 {
						time.Sleep(2 * time.Millisecond)
						continue
					}
					if code == CodeDuplicate {
						// A shed-then-retried name: its first submission
						// already owns the ledger entry.
						break
					}
					mu.Lock()
					bounced++
					mu.Unlock()
					break
				}
				if d := readTally(s).QueueDepth; d > 8 {
					t.Errorf("queue depth %d exceeds bound 8", d)
				}
			}
		}(w)
	}
	wg.Wait()

	// The drain's budget cuts in-flight builds at 5 s.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	m := readTally(s)
	if m.QueueHighWater > 8 {
		t.Fatalf("queue high water %d exceeds bound 8", m.QueueHighWater)
	}
	counts := map[string]int{}
	for _, rec := range s.Jobs() {
		if !Terminal(rec.State) {
			t.Errorf("%s: non-terminal state %q after drain", rec.ID, rec.State)
		}
		counts[rec.State]++
	}
	total := counts[StateCompleted] + counts[StateRejected] + counts[StateDrained]
	if total != len(s.Jobs()) {
		t.Fatalf("ledger: %d records, %d terminal (%v)", len(s.Jobs()), total, counts)
	}
	if int(m.Accepted) > total {
		t.Fatalf("lost jobs: accepted %d > terminal %d (%v)", m.Accepted, total, counts)
	}
	if counts[StateCompleted] == 0 {
		t.Fatal("soak completed zero jobs — the service never made progress")
	}
	t.Logf("soak: accepted=%d bounced=%d states=%v breaker-trips=%v engine-now=%d",
		accepted, bounced, counts, breakerTrips(t, s), m.EngineNow)

	// Goroutine hygiene: everything the server started must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// breakerTrips sums grid_breaker_trips_total over the domain breakers.
func breakerTrips(t *testing.T, s *Server) float64 {
	t.Helper()
	return sumFamily(scrape(t, s.Handler()), "grid_breaker_trips_total")
}

// TestBreakerQuarantinesFailingDomain checks the breaker integration end
// to end in manual mode: repeated mid-run failures in one domain open its
// breaker, and placement then avoids the quarantined domain.
func TestBreakerQuarantinesFailingDomain(t *testing.T) {
	s := newServer(t, failingDomains(Config{QueueCap: 64}))
	// Everything fails mid-run everywhere, so both breakers eventually
	// open; jobs arriving afterwards find no admissible domain.
	for i := 0; i < 12; i++ {
		if _, err := s.Submit(wireJob(fmt.Sprintf("f%d", i), 200), "S1", 0); err != nil {
			t.Fatal(err)
		}
		s.Process(1)
		s.Quiesce()
	}
	states := s.BreakerStates()
	openCount := 0
	for _, st := range states {
		if st == "open" {
			openCount++
		}
	}
	if openCount == 0 {
		t.Fatalf("no breaker opened under a 100%% failure rate: %v", states)
	}
	if breakerTrips(t, s) == 0 {
		t.Fatal("no trips recorded")
	}
}
