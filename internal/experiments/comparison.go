package experiments

import (
	"errors"

	"repro/internal/baseline"
	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/resource"
)

// comparison (E10) pits the critical works method against the classic
// list-scheduling heuristics of the [13] family (Min-Min, Max-Min,
// Sufferage, OLB) on the Fig. 3 corpus: same jobs, same background load,
// same substrates — only the allocation logic differs. The method's claim
// to earn its complexity is higher deadline admissibility (its DP search
// plus collision reallocation) at comparable or better economic cost.
func comparison(cfg Config) (*Report, error) {
	cfg.Jobs = min(cfg.Jobs, ablationMaxJobs)
	r := newReport("comparison",
		"critical works vs classic heuristics ([13] family) on the Fig. 3 corpus")
	names := []string{"critical-works", "critical-works-mincost"}
	for _, h := range baseline.Heuristics {
		names = append(names, h.String())
	}

	// Every scheduler plans each job against its background snapshot (the
	// heuristics, which book as they go, against a clone), and its outcome
	// comes back in its slot.
	outs, err := mapCorpus(cfg, fig3DeadlineFactor, fig3BackgroundPerNode,
		func(env *resource.Environment, job *dag.Job, cals criticalworks.Calendars) ([]planOutcome, error) {
			outs := make([]planOutcome, len(names))
			record := func(slot int, s *criticalworks.Schedule, ok bool) {
				if !ok || s == nil {
					return
				}
				outs[slot] = planOutcome{ok: true, finish: int64(s.Finish), cost: s.Cost}
			}

			// The critical works method, remote-access policy (S2's), so the
			// comparison is free of replication advantages; then its MinCost
			// variant — deadline-constrained cost minimization, the capability
			// the ECT heuristics cannot express at all.
			for slot, obj := range []criticalworks.Objective{criticalworks.MinFinish, criticalworks.MinCost} {
				cw, err := criticalworks.Build(env, cals, job, criticalworks.Options{
					Data:      data.Model{Policy: data.RemoteAccess},
					Objective: obj,
					Telemetry: cfg.Telemetry,
				})
				record(slot, cw, err == nil && cw != nil && cw.MeetsDeadline())
				var inf *criticalworks.InfeasibleError
				if err != nil && !errors.As(err, &inf) {
					return nil, err
				}
			}

			for hi, h := range baseline.Heuristics {
				s, err := baseline.Build(env, cals.Clone(), job, h)
				record(2+hi, s, err == nil && s.MeetsDeadline())
				var inf *baseline.InfeasibleError
				if err != nil && !errors.As(err, &inf) {
					return nil, err
				}
			}
			return outs, nil
		})
	if err != nil {
		return nil, err
	}
	addPlanRows(r, "scheduler", 16, names, outs)
	return r, nil
}

// planOutcome is what one scheduler made of one job: whether it found a
// schedule meeting the deadline, and that schedule's finish and bare cost.
type planOutcome struct {
	ok           bool
	finish, cost int64
}

// addPlanRows adds to r one row per scheduler slot of outcomes[job][slot]:
// the share of jobs it scheduled in time, and the mean finish and cost of
// those, accumulated in job order. The values are keyed admissible-, finish-
// and cf- plus the scheduler's name; head titles the name column, width
// wide.
func addPlanRows(r *Report, head string, width int, names []string, outcomes [][]planOutcome) {
	r.addLine("%-*s %12s %12s %10s", width, head, "admissible", "mean-finish", "mean-CF")
	for slot, name := range names {
		admissible := 0
		var finish, cost Series
		for _, o := range outcomes {
			if o[slot].ok {
				admissible++
				finish.AddInt(o[slot].finish)
				cost.AddInt(o[slot].cost)
			}
		}
		share := float64(admissible) / float64(len(outcomes))
		r.addLine("%-*s %12s %12.1f %10.1f", width, name, ratio(share), finish.Mean(), cost.Mean())
		r.Values["admissible-"+name] = share
		r.Values["finish-"+name] = finish.Mean()
		r.Values["cf-"+name] = cost.Mean()
	}
}
