package experiments

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// The §5 local-queue study: the paper's conclusions compare FCFS, LWF and
// backfilling, and observe that advance reservations "nearly always increase
// queue waiting time" while "backfilling decreases this time". The study's
// cluster and request stream: policyNodes nodes; requests every
// policyMeanGap ticks on average, each for up to policyMaxNodes nodes with a
// walltime in policyWallLo–Hi and a runtime of policyRunLo–Hi of it. In the
// +reservations scenario policyReservedShare of the requests book their
// start policyReserveLead ticks ahead; the gang scheduler slices time in
// policyGangQuantum ticks.
const (
	policyNodes                = 16
	policyMeanGap              = 9.0
	policyWallLo, policyWallHi = 5, 60
	policyRunLo, policyRunHi   = 0.5, 1.0
	policyMaxNodes             = 8
	policyReservedShare        = 0.2
	policyReserveLead          = 30
	policyGangQuantum          = 5
)

// policyArrival is one request of the stream every policy run shares.
type policyArrival struct {
	req batch.Request
	at  simtime.Time
}

func policyStream(cfg Config) []policyArrival {
	r := rng.New(cfg.Seed).Split(0x90)
	out := make([]policyArrival, cfg.Jobs)
	t := 0.0
	for i := range out {
		t += r.Exp(policyMeanGap)
		wall := simtime.Time(r.Int64Between(policyWallLo, policyWallHi))
		run := simtime.Time(float64(wall) * r.Float64Between(policyRunLo, policyRunHi))
		if run < 1 {
			run = 1
		}
		out[i] = policyArrival{
			req: batch.Request{
				ID:       fmt.Sprintf("j%05d", i),
				Nodes:    r.IntBetween(1, policyMaxNodes),
				Walltime: wall,
				Runtime:  run,
			},
			at: simtime.Time(t),
		}
	}
	return out
}

// policyStats summarizes one run.
type policyStats struct {
	meanWait, p95Wait, maxWait float64
	meanErr                    float64
	meanResponse               float64
	killed                     int
}

func runPolicy(cfg Config, mk func(e *sim.Engine) batch.System, reservedShare float64) policyStats {
	e := sim.New()
	sys := mk(e)
	rr := rng.New(cfg.Seed).Split(0x91)
	for _, a := range policyStream(cfg) {
		a := a
		reserved := rr.Float64() < reservedShare
		e.At(a.at, "submit", func() {
			if reserved {
				if c, ok := sys.(*batch.Cluster); ok {
					if c.SubmitReservation(a.req, e.Now()+policyReserveLead) {
						return
					}
				}
			}
			sys.Submit(a.req)
		})
	}
	e.Run()
	var wait, errs, resp Series
	st := policyStats{}
	for _, o := range sys.Outcomes() {
		if o.Reserved {
			continue // the study measures the queued jobs' waits
		}
		wait.AddInt(int64(o.Wait()))
		errs.AddInt(int64(o.ForecastError()))
		resp.AddInt(int64(o.End - o.Arrival))
		if o.Killed {
			st.killed++
		}
	}
	st.meanWait = wait.Mean()
	st.p95Wait = wait.Percentile(95)
	st.maxWait = wait.Max()
	st.meanErr = errs.Mean()
	st.meanResponse = resp.Mean()
	return st
}

// policies regenerates the §5 local-policy comparison (E7): queue waiting
// time and start-forecast error per policy, the backfilling gain, and the
// advance-reservation penalty.
func policies(cfg Config) (*Report, error) {
	if err := checkJobs(cfg.Jobs); err != nil {
		return nil, err
	}
	r := newReport("policies", "local batch policies (paper §5: backfilling shrinks waits, reservations grow them)")
	type entry struct {
		name string
		mk   func(e *sim.Engine) batch.System
		res  float64
	}
	entries := []entry{
		{"FCFS", func(e *sim.Engine) batch.System { return batch.NewCluster(e, policyNodes, batch.Policy{}) }, 0},
		{"LWF", func(e *sim.Engine) batch.System {
			return batch.NewCluster(e, policyNodes, batch.Policy{Discipline: batch.LWF})
		}, 0},
		{"FCFS+easy-backfill", func(e *sim.Engine) batch.System {
			return batch.NewCluster(e, policyNodes, batch.Policy{Backfill: batch.EasyBackfill})
		}, 0},
		{"FCFS+conservative-backfill", func(e *sim.Engine) batch.System {
			return batch.NewCluster(e, policyNodes, batch.Policy{Backfill: batch.ConservativeBackfill})
		}, 0},
		{"FCFS+reservations", func(e *sim.Engine) batch.System {
			return batch.NewCluster(e, policyNodes, batch.Policy{})
		}, policyReservedShare},
		{"gang", func(e *sim.Engine) batch.System { return batch.NewGang(e, policyNodes, policyGangQuantum) }, 0},
	}
	r.addLine("%-28s %10s %10s %10s %12s %12s", "policy", "mean-wait", "p95-wait", "max-wait", "mean-error", "mean-resp")
	for _, en := range entries {
		st := runPolicy(cfg, en.mk, en.res)
		r.addLine("%-28s %10.1f %10.1f %10.1f %12.1f %12.1f",
			en.name, st.meanWait, st.p95Wait, st.maxWait, st.meanErr, st.meanResponse)
		r.Values["wait-"+en.name] = st.meanWait
		r.Values["maxwait-"+en.name] = st.maxWait
		r.Values["error-"+en.name] = st.meanErr
		r.Values["response-"+en.name] = st.meanResponse
	}
	return r, nil
}
