package experiments

import (
	"fmt"
	"testing"
)

// paperClaims are, by experiment ID, the paper's claims that hold whatever
// the constants: DESIGN §2 promises the figures' shape, not their numbers.
// Each checks one report and names every claim it breaks through errorf.
// TestExperimentGoldens asserts them on its golden-size runs (seed 3, 30
// jobs) and the *Shape tests at 60–500 jobs, so a change that moves a golden
// is told which claim the new numbers break. Three orderings do not hold at
// the golden size — Fig. 4c's two and LWF's starvation tail (EXPERIMENTS.md
// E34) — and stay in their *Shape tests only.
var paperClaims = map[string]func(r *Report, errorf func(format string, args ...any)){
	"fig2": func(r *Report, errorf func(string, ...any)) {
		// §3: four critical works of lengths 12, 11, 10, 9.
		for i, want := range []float64{12, 11, 10, 9} {
			if got := r.Value(fmt.Sprintf("chain%d", i+1)); got != want {
				errorf("chain %d length = %v, want %v", i+1, got, want)
			}
		}
		// Fig. 2(b)'s essence: the cheapest distribution is NOT the fastest
		// one (CF2=37 beat CF1=CF3=41 by not racing).
		if r.Value("cheapest-level") == r.Value("fastest-level") {
			errorf("cheapest and fastest distributions coincide; no CF trade-off visible")
		}
		if r.Value("cheapest-cf") >= r.Value("fastest-cf") {
			errorf("cheapest CF %v not below fastest CF %v", r.Value("cheapest-cf"), r.Value("fastest-cf"))
		}
		// The P4/P5-style collision on the constrained environment.
		if r.Value("collisions") < 1 {
			errorf("no collision reproduced on the constrained environment")
		}
	},
	"fig3a": func(r *Report, errorf func(string, ...any)) {
		// Paper Fig. 3a ordering: S1 (38%) ≥ S2 (37%) > S3 (33%).
		s1, s2, s3 := r.Value("admissible-S1"), r.Value("admissible-S2"), r.Value("admissible-S3")
		if !(s1 >= s2 && s2 > s3) {
			errorf("admissibility ordering broken: S1=%v S2=%v S3=%v", s1, s2, s3)
		}
		if s1 == 0 || s3 == 0 {
			errorf("degenerate admissibility rates: S1=%v S3=%v", s1, s3)
		}
	},
	"fig3b": func(r *Report, errorf func(string, ...any)) {
		// Paper Fig. 3b ordering of the fast-node share: S1 (32%) < S2 (56%)
		// < S3 (74%).
		f1, f2, f3 := r.Value("fast-S1"), r.Value("fast-S2"), r.Value("fast-S3")
		if !(f1 < f2 && f2 < f3) {
			errorf("collision fast-share ordering broken: S1=%v S2=%v S3=%v", f1, f2, f3)
		}
		// S1's collisions predominantly on slow nodes, as in the paper.
		if r.Value("slow-S1") < 0.5 {
			errorf("S1 slow-node collision share = %v, want majority", r.Value("slow-S1"))
		}
	},
	"fig4a": func(r *Report, errorf func(string, ...any)) {
		// Paper Fig. 4a: S1 occupies slow nodes, S3 the fastest ones.
		if r.Value("slow-S1") <= r.Value("fast-S1") {
			errorf("S1 load: slow %v not above fast %v", r.Value("slow-S1"), r.Value("fast-S1"))
		}
		if r.Value("fast-S3") <= r.Value("slow-S3") {
			errorf("S3 load: fast %v not above slow %v", r.Value("fast-S3"), r.Value("slow-S3"))
		}
		// S3 leans harder on fast nodes than S1 does.
		if r.Value("fast-S3") <= r.Value("fast-S1") {
			errorf("S3 fast load %v not above S1's %v", r.Value("fast-S3"), r.Value("fast-S1"))
		}
	},
	"fig4b": func(r *Report, errorf func(string, ...any)) {
		// Paper Fig. 4b: the lowest-cost strategies are the slowest ones (S3);
		// MS1's tasks run at least as long as S2's.
		if r.Value("cost-S3") >= r.Value("cost-S2") {
			errorf("S3 relative cost %v not below S2 %v", r.Value("cost-S3"), r.Value("cost-S2"))
		}
		if r.Value("task-S3") != 1 {
			errorf("S3 relative task time = %v, want the maximum (1)", r.Value("task-S3"))
		}
		if r.Value("task-MS1") < r.Value("task-S2") {
			errorf("MS1 relative task time %v below S2 %v", r.Value("task-MS1"), r.Value("task-S2"))
		}
	},
	"policies": func(r *Report, errorf func(string, ...any)) {
		// §5: "Backfilling decreases this [queue waiting] time."
		if r.Value("wait-FCFS+easy-backfill") >= r.Value("wait-FCFS") {
			errorf("easy backfill wait %v not below FCFS %v", r.Value("wait-FCFS+easy-backfill"), r.Value("wait-FCFS"))
		}
		if r.Value("wait-FCFS+conservative-backfill") >= r.Value("wait-FCFS") {
			errorf("conservative backfill wait %v not below FCFS %v", r.Value("wait-FCFS+conservative-backfill"), r.Value("wait-FCFS"))
		}
		// §5: "preliminary reservation nearly always increases queue waiting
		// time."
		if r.Value("wait-FCFS+reservations") <= r.Value("wait-FCFS") {
			errorf("reservations wait %v not above plain FCFS %v", r.Value("wait-FCFS+reservations"), r.Value("wait-FCFS"))
		}
		// Gang admits immediately: its mean wait stays below plain FCFS's.
		if r.Value("wait-gang") >= r.Value("wait-FCFS") {
			errorf("gang wait %v not below FCFS %v", r.Value("wait-gang"), r.Value("wait-FCFS"))
		}
	},
	"ablation-collision": func(r *Report, errorf func(string, ...any)) {
		// Economic reallocation must dominate the pinned-node delay baseline
		// on admissibility — this is the design choice E8 isolates.
		if r.Value("admissible-economic-reallocation") <= r.Value("admissible-pinned-node-delay") {
			errorf("reallocation admissibility %v not above delay %v",
				r.Value("admissible-economic-reallocation"), r.Value("admissible-pinned-node-delay"))
		}
	},
	"ablation-levels": func(r *Report, errorf func(string, ...any)) {
		// E9, §4: MS1 must be cheaper to generate but cover fewer admissible
		// levels.
		if r.Value("evaluations-MS1") >= r.Value("evaluations-S1") {
			errorf("MS1 evaluations %v not below S1 %v", r.Value("evaluations-MS1"), r.Value("evaluations-S1"))
		}
		if r.Value("levels-MS1") >= r.Value("levels-S1") {
			errorf("MS1 coverage %v not below S1 %v", r.Value("levels-MS1"), r.Value("levels-S1"))
		}
	},
	"comparison": func(r *Report, errorf func(string, ...any)) {
		// The cost-targeted critical works run must be far cheaper than any
		// ECT heuristic (which cannot trade promptness for cost at all), while
		// staying usefully admissible; and the promptness-targeted run must be
		// at least as cheap as min-min.
		if r.Value("cf-critical-works-mincost") >= r.Value("cf-min-min") {
			errorf("mincost CF %v not below min-min %v", r.Value("cf-critical-works-mincost"), r.Value("cf-min-min"))
		}
		if r.Value("admissible-critical-works-mincost") < 0.3 {
			errorf("mincost admissibility collapsed: %v", r.Value("admissible-critical-works-mincost"))
		}
		if r.Value("cf-critical-works") > r.Value("cf-min-min") {
			errorf("critical works CF %v above min-min %v", r.Value("cf-critical-works"), r.Value("cf-min-min"))
		}
		// OLB is the known-weak baseline: everything beats it on admissibility.
		if r.Value("admissible-olb") >= r.Value("admissible-critical-works") {
			errorf("OLB admissibility %v not below critical works %v",
				r.Value("admissible-olb"), r.Value("admissible-critical-works"))
		}
	},
	"local-passing": func(r *Report, errorf func(string, ...any)) {
		// §5: reservations guarantee the plan; queued local passing loses a
		// substantial share of deadlines.
		if r.Value("met-reserved") != 1 {
			errorf("reserved share = %v", r.Value("met-reserved"))
		}
		if r.Value("met-queued") >= r.Value("met-reserved") {
			errorf("queued share %v not below reserved %v", r.Value("met-queued"), r.Value("met-reserved"))
		}
		if r.Value("met-queued") > 0 && r.Value("mean-lateness") <= 0 && r.Value("met-queued") < 1 {
			errorf("late jobs exist but lateness is zero")
		}
	},
	"availability": func(r *Report, errorf func(string, ...any)) {
		for _, typ := range []string{"S1", "S2", "S3"} {
			base := r.Value("miss-" + typ + "-1.00")
			worst := r.Value("miss-" + typ + "-0.80")
			// The fault-free baseline must be the best case: an unreliable
			// environment cannot lower the QoS-miss rate.
			if worst < base {
				errorf("%s: miss rate at 80%% availability (%v) below baseline (%v)", typ, worst, base)
			}
			// The baseline runs with faults disabled: no failure machinery fires.
			if r.Value("failures-"+typ+"-1.00") != 0 || r.Value("retries-"+typ+"-1.00") != 0 {
				errorf("%s: fault counters nonzero in the fault-free baseline", typ)
			}
			// Degraded runs actually exercise the recovery ladder.
			if r.Value("failures-"+typ+"-0.80") == 0 {
				errorf("%s: no task failures at 80%% availability", typ)
			}
		}
	},
}

// checkClaims asserts the paper's claims on r, its experiment's report.
func checkClaims(t *testing.T, r *Report) {
	t.Helper()
	if claims := paperClaims[r.ID]; claims != nil {
		claims(r, t.Errorf)
	}
}
