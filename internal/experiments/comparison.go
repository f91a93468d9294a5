package experiments

import (
	"errors"

	"repro/internal/baseline"
	"repro/internal/criticalworks"
	"repro/internal/data"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// Comparison (E10) pits the critical works method against the classic
// list-scheduling heuristics of the [13] family (Min-Min, Max-Min,
// Sufferage, OLB) on the Fig. 3 corpus: same jobs, same background load,
// same substrates — only the allocation logic differs. The method's claim
// to earn its complexity is higher deadline admissibility (its DP search
// plus collision reallocation) at comparable or better economic cost.
func Comparison(cfg Fig3Config) (*Report, error) {
	r := newReport("comparison",
		"critical works vs classic heuristics ([13] family) on the Fig. 3 corpus")
	gen := workload.New(fig3WorkloadConfig(cfg))
	env := gen.Environment(1)

	names := []string{"critical-works", "critical-works-mincost"}
	for _, h := range baseline.Heuristics {
		names = append(names, h.String())
	}
	out := make(map[string]*comparisonStats, len(names))
	for _, n := range names {
		out[n] = &comparisonStats{}
	}

	// One unit per job: every scheduler runs against a clone of the job's
	// background snapshot, and the per-scheduler outcomes come back in a
	// fixed slot order. The merge walks jobs in index order so the Series
	// accumulation matches the sequential run exactly.
	type schedOutcome struct {
		ok     bool
		finish int64
		cost   int64
	}
	streams := fig3Background(cfg).SplitN(cfg.Jobs)
	jobOuts, err := parallel.Map(cfg.Workers, cfg.Jobs, func(i int) ([]schedOutcome, error) {
		job := gen.Job(i)
		cals := loadedCalendars(env, streams[i], cfg)
		outs := make([]schedOutcome, len(names))
		record := func(slot int, s *criticalworks.Schedule, ok bool) {
			if !ok || s == nil {
				return
			}
			outs[slot] = schedOutcome{ok: true, finish: int64(s.Finish), cost: s.BareCF}
		}

		// The critical works method, remote-access policy (S2's), so the
		// comparison is free of replication advantages.
		cw, err := criticalworks.Build(env, cals, job, criticalworks.Options{
			Data: data.Model{Policy: data.RemoteAccess},
		})
		record(0, cw, err == nil && cw != nil && cw.MeetsDeadline())
		if err != nil {
			var inf *criticalworks.InfeasibleError
			if !errors.As(err, &inf) {
				return nil, err
			}
		}

		// The MinCost variant — deadline-constrained cost minimization —
		// is the capability the ECT heuristics cannot express at all.
		cwc, err := criticalworks.Build(env, cals, job, criticalworks.Options{
			Data:      data.Model{Policy: data.RemoteAccess},
			Objective: criticalworks.MinCost,
		})
		record(1, cwc, err == nil && cwc != nil && cwc.MeetsDeadline())
		if err != nil {
			var inf *criticalworks.InfeasibleError
			if !errors.As(err, &inf) {
				return nil, err
			}
		}

		for hi, h := range baseline.Heuristics {
			s, err := baseline.Build(env, cals.Clone(), job, h, baseline.Options{
				Catalog: data.NewCatalog(data.RemoteAccess, 0),
			})
			record(2+hi, s, err == nil && s.MeetsDeadline())
			if err != nil {
				var inf *baseline.InfeasibleError
				if !errors.As(err, &inf) {
					return nil, err
				}
			}
		}
		return outs, nil
	})
	if err != nil {
		return nil, err
	}
	for _, outs := range jobOuts {
		for slot, o := range outs {
			if !o.ok {
				continue
			}
			st := out[names[slot]]
			st.admissible++
			st.finish.AddInt(o.finish)
			st.cost.AddInt(o.cost)
		}
	}

	r.addLine("%-16s %12s %12s %10s", "scheduler", "admissible", "mean-finish", "mean-CF")
	for _, n := range names {
		st := out[n]
		share := float64(st.admissible) / float64(cfg.Jobs)
		r.addLine("%-16s %12s %12.1f %10.1f", n, Ratio(share), st.finish.Mean(), st.cost.Mean())
		r.Values["admissible-"+n] = share
		r.Values["finish-"+n] = st.finish.Mean()
		r.Values["cf-"+n] = st.cost.Mean()
	}
	return r, nil
}

// comparisonStats accumulates one scheduler's outcomes.
type comparisonStats struct {
	admissible int
	finish     Series
	cost       Series
}
