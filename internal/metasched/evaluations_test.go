package metasched

import (
	"fmt"
	"testing"

	"repro/internal/criticalworks"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestEvaluationsAreTheProbesPerformed pins Schedule.Evaluations' contract
// end to end: every level a job manager gets — at adoption, on a retry, down
// the fallback ladder, after a reallocation — is one criticalworks.Build,
// and Build is the only code that bumps the grid_criticalworks_* counters.
// So at Placers ≤ 1, where no built plan is ever discarded by a lost round,
// what the jobs were charged must add up to what the builds reported: the
// evaluations summed over the job results equal the evaluations counter, and
// the collisions likewise.
//
// A level served any other way breaks the sum: the availability case failed
// while re-anchors could be answered from a memoized build, which charged
// the job the memoized probe count and reported nothing.
func TestEvaluationsAreTheProbesPerformed(t *testing.T) {
	type scenario struct {
		name  string
		wl    workload.Config
		jobs  int
		types []strategy.Type
		cfg   func(until simtime.Time) Config
	}
	var cases []scenario
	for _, seed := range []uint64{1, 2, 3, 5, 8} {
		cases = append(cases, scenario{
			name:  fmt.Sprintf("faulty/seed%d", seed),
			wl:    workload.Default(seed),
			jobs:  30,
			types: strategy.AllTypes,
			cfg:   func(until simtime.Time) Config { return faultyVOConfig(seed, until) },
		})
	}
	// One cell of the availability sweep (experiments.Availability, seed 3,
	// 12 jobs, availability 0.8): its Fig. 4 corpus — loose deadlines, several
	// admissible levels per strategy — and outage process, no external load.
	avail := workload.Default(3)
	avail.DeadlineFactor = 1.8
	avail.TransferLo, avail.TransferHi = 2, 8
	avail.PipelineProb, avail.MaxPipeline = 0.6, 3
	avail.MinWidth, avail.MaxWidth = 2, 3
	avail.MinLayers, avail.MaxLayers = 3, 4
	avail.MeanInterarrival = 12
	for _, typ := range []strategy.Type{strategy.S1, strategy.S2, strategy.S3} {
		cases = append(cases, scenario{
			name:  "availability-0.8/" + typ.String(),
			wl:    avail,
			jobs:  12,
			types: []strategy.Type{typ},
			cfg: func(until simtime.Time) Config {
				mtbf, mttr := faults.ForAvailability(0.8, 20)
				return Config{
					Objective: criticalworks.MinCost,
					Seed:      avail.Seed,
					Faults: faults.Config{
						MTBF: mtbf, MTTR: mttr, DomainOutageProb: 0.1,
						TaskFailRate: 0.05, MaxRetries: 2, Until: until, Seed: avail.Seed,
					},
				}
			},
		})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New()
			gen := workload.New(tc.wl)
			env := gen.Environment(2)
			flow := gen.Flow(0, tc.jobs, 0)
			cfg := tc.cfg(flow[len(flow)-1].At + 200)
			reg := telemetry.NewRegistry()
			cfg.Telemetry = reg
			vo := NewVO(e, env, cfg)
			for i, a := range flow {
				vo.Submit(a.Job, tc.types[i%len(tc.types)], a.At)
			}
			e.Run()

			var evals, colls, ladder int64
			for _, r := range vo.Results() {
				evals += r.Evaluations
				colls += int64(len(r.Collisions))
				ladder += int64(r.Fallbacks + r.Reallocations + r.Retries)
			}
			if len(vo.Results()) != tc.jobs || ladder == 0 {
				t.Fatalf("%d of %d jobs terminal, %d recovery steps: the run no longer exercises re-anchoring", len(vo.Results()), tc.jobs, ladder)
			}
			t.Logf("%d evaluations, %d collisions, %d recovery steps", evals, colls, ladder)
			if got := int64(reg.Counter("grid_criticalworks_evaluations_total", "").Value()); got != evals {
				t.Errorf("job results carry %d evaluations, the builds performed %d", evals, got)
			}
			if got := int64(reg.Counter("grid_criticalworks_collisions_total", "").Value()); got != colls {
				t.Errorf("job results carry %d collisions, the builds recorded %d", colls, got)
			}
		})
	}
}
