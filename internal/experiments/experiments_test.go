package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestFig2ReproducesPaperStructure(t *testing.T) {
	r, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	// §3: four critical works of lengths 12, 11, 10, 9.
	for i, want := range []float64{12, 11, 10, 9} {
		if got := r.Value(fmt.Sprintf("chain%d", i+1)); got != want {
			t.Errorf("chain %d length = %v, want %v", i+1, got, want)
		}
	}
	// Fig. 2(b)'s essence: the cheapest distribution is NOT the fastest
	// one (CF2=37 beat CF1=CF3=41 by not racing).
	if r.Value("cheapest-level") == r.Value("fastest-level") {
		t.Error("cheapest and fastest distributions coincide; no CF trade-off visible")
	}
	if r.Value("cheapest-cf") >= r.Value("fastest-cf") {
		t.Errorf("cheapest CF %v not below fastest CF %v",
			r.Value("cheapest-cf"), r.Value("fastest-cf"))
	}
	// The P4/P5-style collision on the constrained environment.
	if r.Value("collisions") < 1 {
		t.Error("no collision reproduced on the constrained environment")
	}
}

func TestFig3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	cfg := Fig3Config{Seed: 1, Jobs: 200}
	a, err := Fig3a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 3a ordering: S1 (38%) ≥ S2 (37%) > S3 (33%).
	s1, s2, s3 := a.Value("admissible-S1"), a.Value("admissible-S2"), a.Value("admissible-S3")
	if !(s1 >= s2 && s2 > s3) {
		t.Errorf("admissibility ordering broken: S1=%v S2=%v S3=%v", s1, s2, s3)
	}
	if s1 == 0 || s3 == 0 {
		t.Error("degenerate admissibility rates")
	}

	b, err := Fig3b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 3b ordering of the fast-node share: S1 (32%) < S2 (56%)
	// < S3 (74%).
	f1, f2, f3 := b.Value("fast-S1"), b.Value("fast-S2"), b.Value("fast-S3")
	if !(f1 < f2 && f2 < f3) {
		t.Errorf("collision fast-share ordering broken: S1=%v S2=%v S3=%v", f1, f2, f3)
	}
	// S1's collisions predominantly on slow nodes, as in the paper.
	if b.Value("slow-S1") < 0.5 {
		t.Errorf("S1 slow-node collision share = %v, want majority", b.Value("slow-S1"))
	}
}

func TestFig3Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	cfg := Fig3Config{Seed: 7, Jobs: 60}
	a1, err := Fig3a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Fig3a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a1.Values {
		if a2.Values[k] != v {
			t.Errorf("value %q differs across identical runs: %v vs %v", k, v, a2.Values[k])
		}
	}
}

func TestFig4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	cfg := Fig4Config{Seed: 1, Jobs: 150}
	a, err := Fig4a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 4a: S1 occupies slow nodes, S3 the fastest ones.
	if a.Value("slow-S1") <= a.Value("fast-S1") {
		t.Errorf("S1 load: slow %v not above fast %v", a.Value("slow-S1"), a.Value("fast-S1"))
	}
	if a.Value("fast-S3") <= a.Value("slow-S3") {
		t.Errorf("S3 load: fast %v not above slow %v", a.Value("fast-S3"), a.Value("slow-S3"))
	}
	// S3 leans harder on fast nodes than S1 does.
	if a.Value("fast-S3") <= a.Value("fast-S1") {
		t.Errorf("S3 fast load %v not above S1's %v", a.Value("fast-S3"), a.Value("fast-S1"))
	}

	b, err := Fig4b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 4b: the lowest-cost strategies are the slowest ones (S3);
	// MS1's tasks run at least as long as S2's.
	if b.Value("cost-S3") >= b.Value("cost-S2") {
		t.Errorf("S3 relative cost %v not below S2 %v", b.Value("cost-S3"), b.Value("cost-S2"))
	}
	if b.Value("task-S3") != 1 {
		t.Errorf("S3 relative task time = %v, want the maximum (1)", b.Value("task-S3"))
	}
	if b.Value("task-MS1") < b.Value("task-S2") {
		t.Errorf("MS1 relative task time %v below S2 %v", b.Value("task-MS1"), b.Value("task-S2"))
	}

	c, err := Fig4c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 4c: cheap slow strategies like S3 are the most
	// persistent; sparse MS1 is less persistent and less accurate than S3.
	if c.Value("ttl-S3") < c.Value("ttl-MS1") {
		t.Errorf("S3 TTL %v below MS1 %v", c.Value("ttl-S3"), c.Value("ttl-MS1"))
	}
	if c.Value("dev-MS1") <= c.Value("dev-S3") {
		t.Errorf("MS1 deviation %v not above S3 %v", c.Value("dev-MS1"), c.Value("dev-S3"))
	}
}

func TestPoliciesShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	r, err := Policies(PoliciesConfig{Seed: 1, Jobs: 500})
	if err != nil {
		t.Fatal(err)
	}
	// §5: "Backfilling decreases this [queue waiting] time."
	if r.Value("wait-FCFS+easy-backfill") >= r.Value("wait-FCFS") {
		t.Errorf("easy backfill wait %v not below FCFS %v",
			r.Value("wait-FCFS+easy-backfill"), r.Value("wait-FCFS"))
	}
	if r.Value("wait-FCFS+conservative-backfill") >= r.Value("wait-FCFS") {
		t.Error("conservative backfill did not reduce wait")
	}
	// §5: "preliminary reservation nearly always increases queue waiting
	// time."
	if r.Value("wait-FCFS+reservations") <= r.Value("wait-FCFS") {
		t.Errorf("reservations wait %v not above plain FCFS %v",
			r.Value("wait-FCFS+reservations"), r.Value("wait-FCFS"))
	}
	// LWF trades tail for mean: its worst-case wait (starvation) exceeds
	// FCFS's.
	if r.Value("maxwait-LWF") <= r.Value("maxwait-FCFS") {
		t.Errorf("LWF max wait %v not above FCFS %v",
			r.Value("maxwait-LWF"), r.Value("maxwait-FCFS"))
	}
	// Gang admits immediately: its mean wait stays below plain FCFS's.
	if r.Value("wait-gang") >= r.Value("wait-FCFS") {
		t.Errorf("gang wait %v not below FCFS %v", r.Value("wait-gang"), r.Value("wait-FCFS"))
	}
}

func TestAblationCollisionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	r, err := AblationCollision(Fig3Config{Seed: 1, Jobs: 120})
	if err != nil {
		t.Fatal(err)
	}
	// Economic reallocation must dominate the pinned-node delay baseline
	// on admissibility — this is the design choice E8 isolates.
	if r.Value("admissible-economic-reallocation") <= r.Value("admissible-pinned-node-delay") {
		t.Errorf("reallocation admissibility %v not above delay %v",
			r.Value("admissible-economic-reallocation"), r.Value("admissible-pinned-node-delay"))
	}
}

func TestAblationLevelsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	r, err := AblationLevels(Fig3Config{Seed: 1, Jobs: 120})
	if err != nil {
		t.Fatal(err)
	}
	// MS1 must be cheaper to generate but cover fewer admissible levels.
	if r.Value("evaluations-MS1") >= r.Value("evaluations-S1") {
		t.Errorf("MS1 evaluations %v not below S1 %v",
			r.Value("evaluations-MS1"), r.Value("evaluations-S1"))
	}
	if r.Value("levels-MS1") >= r.Value("levels-S1") {
		t.Errorf("MS1 coverage %v not below S1 %v",
			r.Value("levels-MS1"), r.Value("levels-S1"))
	}
}

func TestComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	r, err := Comparison(Fig3Config{Seed: 1, Jobs: 120})
	if err != nil {
		t.Fatal(err)
	}
	// The cost-targeted critical works run must be far cheaper than any
	// ECT heuristic (which cannot trade promptness for cost at all), while
	// staying usefully admissible; and the promptness-targeted run must be
	// at least as cheap as min-min.
	if r.Value("cf-critical-works-mincost") >= r.Value("cf-min-min") {
		t.Errorf("mincost CF %v not below min-min %v",
			r.Value("cf-critical-works-mincost"), r.Value("cf-min-min"))
	}
	if r.Value("admissible-critical-works-mincost") < 0.3 {
		t.Errorf("mincost admissibility collapsed: %v", r.Value("admissible-critical-works-mincost"))
	}
	if r.Value("cf-critical-works") > r.Value("cf-min-min") {
		t.Errorf("critical works CF %v above min-min %v",
			r.Value("cf-critical-works"), r.Value("cf-min-min"))
	}
	// OLB is the known-weak baseline: everything beats it on admissibility.
	if r.Value("admissible-olb") >= r.Value("admissible-critical-works") {
		t.Errorf("OLB admissibility %v not below critical works %v",
			r.Value("admissible-olb"), r.Value("admissible-critical-works"))
	}
}

func TestFig4Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	cfg := Fig4Config{Seed: 3, Jobs: 40}
	a1, err := Fig4a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Fig4a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a1.Values {
		if a2.Values[k] != v {
			t.Errorf("value %q differs across identical runs: %v vs %v", k, v, a2.Values[k])
		}
	}
}

func TestLocalPassingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	r, err := LocalPassing(Fig4Config{Seed: 1, Jobs: 100})
	if err != nil {
		t.Fatal(err)
	}
	// §5: reservations guarantee the plan; queued local passing loses a
	// substantial share of deadlines.
	if r.Value("met-reserved") != 1 {
		t.Errorf("reserved share = %v", r.Value("met-reserved"))
	}
	if r.Value("met-queued") >= r.Value("met-reserved") {
		t.Errorf("queued share %v not below reserved %v",
			r.Value("met-queued"), r.Value("met-reserved"))
	}
	if r.Value("met-queued") > 0 && r.Value("mean-lateness") <= 0 && r.Value("met-queued") < 1 {
		t.Error("late jobs exist but lateness is zero")
	}
}

func TestReportWriteTo(t *testing.T) {
	r, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== fig2:") || !strings.Contains(out, "critical works") {
		t.Errorf("unexpected report rendering:\n%s", out)
	}
}

func TestReportValuePanicsOnUnknownKey(t *testing.T) {
	r := newReport("x", "y")
	defer func() {
		if recover() == nil {
			t.Fatal("unknown key did not panic")
		}
	}()
	r.Value("nope")
}

func TestAvailabilityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	cfg := DefaultAvailability(1, 60)
	cfg.Levels = []float64{1.0, 0.9, 0.8}
	r, err := Availability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []string{"S1", "S2", "S3"} {
		base := r.Value("miss-" + typ + "-1.00")
		worst := r.Value("miss-" + typ + "-0.80")
		// The fault-free baseline must be the best case: an unreliable
		// environment cannot lower the QoS-miss rate.
		if worst < base {
			t.Errorf("%s: miss rate at 80%% availability (%v) below baseline (%v)",
				typ, worst, base)
		}
		// The baseline runs with faults disabled: no failure machinery fires.
		if r.Value("failures-"+typ+"-1.00") != 0 || r.Value("retries-"+typ+"-1.00") != 0 {
			t.Errorf("%s: fault counters nonzero in the fault-free baseline", typ)
		}
		// Degraded runs actually exercise the recovery ladder.
		if r.Value("failures-"+typ+"-0.80") == 0 {
			t.Errorf("%s: no task failures at 80%% availability", typ)
		}
	}
}

func TestAvailabilityDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus experiment")
	}
	cfg := DefaultAvailability(3, 30)
	cfg.Levels = []float64{0.9}
	a, err := Availability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Availability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Values {
		if b.Values[k] != v {
			t.Errorf("value %q differs across identical faulty runs: %v vs %v", k, v, b.Values[k])
		}
	}
}

// TestEveryExperimentRefusesAnEmptyCorpus: a corpus size below one is an
// error from every experiment that takes one, returned at once, never a hang
// (an empty flow once left the VO's background load re-arming forever), a
// panic or a NaN report.
func TestEveryExperimentRefusesAnEmptyCorpus(t *testing.T) {
	for _, e := range Experiments {
		if e.ID == "fig2" {
			continue // the worked example has no corpus
		}
		for _, jobs := range []int{0, -3} {
			t.Run(fmt.Sprintf("%s/jobs%d", e.ID, jobs), func(t *testing.T) {
				type result struct {
					report *Report
					err    error
					panic  any
				}
				done := make(chan result, 1)
				go func() {
					defer func() {
						if p := recover(); p != nil {
							done <- result{panic: p}
						}
					}()
					r, err := e.Run(DefaultAvailability(3, jobs))
					done <- result{report: r, err: err}
				}()
				select {
				case res := <-done:
					if res.panic != nil {
						t.Fatalf("panic: %v", res.panic)
					}
					if res.err == nil {
						var report bytes.Buffer
						res.report.WriteTo(&report)
						t.Fatalf("no error; report:\n%s", report.String())
					}
				case <-time.After(10 * time.Second):
					t.Fatal("still running after 10 s")
				}
			})
		}
	}
}
