package metasched

import (
	"context"
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

// TestEvaluationsAreTheProbesPerformed runs the scenarios in which every
// level a job manager gets — at adoption, on a retry, down the fallback
// ladder, after a reallocation — is one criticalworks.Build, the only code
// that bumps the grid_criticalworks_* counters, which are the one tally of
// the probes performed and the collisions recorded. Every job goes terminal,
// and the runs climb the recovery ladder.
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

			var ladder int
			for _, r := range vo.Results() {
				ladder += r.Fallbacks + r.Reallocations + r.Retries
			}
			if len(vo.Results()) != tc.jobs || ladder == 0 {
				t.Fatalf("%d of %d jobs terminal, %d recovery steps: the run no longer exercises re-anchoring", len(vo.Results()), tc.jobs, ladder)
			}
			t.Logf("%d evaluations, %d collisions, %d recovery steps",
				reg.Counter("grid_criticalworks_evaluations_total", "").Value(),
				reg.Counter("grid_criticalworks_collisions_total", "").Value(), ladder)
		})
	}
}

// TestBatchMembersAreBuiltOnce is the same build-once contract at Placers 4,
// where a
// lost optimistic round used to throw a built strategy away and build it
// again: contended same-tick batches of eight over three domains. Every
// generation asks BuildCtx for its context exactly once, so counting the
// calls per job counts the generations:
//
//   - when the first member of a batch is reallocated, every member has been
//     generated exactly once — reallocation waits for the end of the batch;
//   - over its whole life a job is generated once plus once per reallocation
//     (no faults or external load here, so nothing else re-plans).
func TestBatchMembersAreBuiltOnce(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		built := map[string]int{}
		var batch []string // placeable members of the batch arriving at batchAt
		batchAt := simtime.Time(-1)
		checked := 0
		vo := placerOpts{seed: seed, placers: 4, domains: 3, jobs: 40, group: 8, gap: 150, stretch: 2, doomEvery: 9,
			cfg: func(c *Config) {
				c.BuildCtx = func(job string) (context.Context, context.CancelFunc) {
					built[job]++
					return context.Background(), func() {}
				}
				c.Tracer = TracerFunc(func(ev Event) {
					switch ev.Kind {
					case EventArrive:
						if ev.At != batchAt {
							batch, batchAt = batch[:0], ev.At
						}
						if ev.Domain != "" {
							batch = append(batch, ev.Job)
						}
					case EventReallocate:
						for _, name := range batch {
							if built[name] != 1 {
								t.Errorf("seed %d: %s was generated %d times when %s, the batch's first, was reallocated", seed, name, built[name], ev.Job)
							}
						}
						checked += len(batch)
						batch = batch[:0] // later reallocations of the batch re-plan by design
					}
				})
			}}.run()

		moved := 0
		for _, r := range vo.Results() {
			moved += r.Reallocations
			if got, want := built[r.Job.Name], 1+r.Reallocations; got != want {
				t.Errorf("seed %d: %s was generated %d times, want %d (1 + %d reallocations)", seed, r.Job.Name, got, want, r.Reallocations)
			}
		}
		if len(vo.Results()) != 40 || moved == 0 || checked == 0 {
			t.Fatalf("seed %d: %d results, %d reallocations, %d members checked: the batches no longer contend", seed, len(vo.Results()), moved, checked)
		}
	}
}
