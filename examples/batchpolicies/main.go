// Batchpolicies compares the local batch-queue policies named in the
// paper's conclusions (§5) on one identical request stream: FCFS, LWF,
// EASY and conservative backfilling, gang scheduling, and FCFS with a
// share of advance reservations.
package main

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/simtime"
)

const (
	nodes = 8
	jobs  = 300
)

func stream() []batch.Request {
	r := rng.New(99)
	out := make([]batch.Request, jobs)
	for i := range out {
		wall := simtime.Time(r.IntBetween(4, 40))
		run := simtime.Time(float64(wall) * r.Float64Between(0.5, 1.0))
		if run < 1 {
			run = 1
		}
		out[i] = batch.Request{
			ID:       fmt.Sprintf("j%03d", i),
			Nodes:    r.IntBetween(1, nodes/2),
			Walltime: wall,
			Runtime:  run,
		}
	}
	return out
}

func run(name string, mk func(e *sim.Engine) batch.System, reserveEvery int) {
	e := sim.New()
	sys := mk(e)
	for i, req := range stream() {
		req := req
		at := simtime.Time(i * 5)
		reserve := reserveEvery > 0 && i%reserveEvery == 0
		e.At(at, "submit", func() {
			if reserve {
				if c, ok := sys.(*batch.Cluster); ok && c.SubmitReservation(req, e.Now()+40) {
					return
				}
			}
			sys.Submit(req)
		})
	}
	e.Run()

	var wait, errs experiments.Series
	for _, o := range sys.Outcomes() {
		if o.Reserved {
			continue
		}
		wait.AddInt(int64(o.Wait()))
		errs.AddInt(int64(o.ForecastError()))
	}
	fmt.Printf("  %-28s mean-wait %6.1f  p95 %6.1f  max %6.1f  forecast-err %5.1f\n",
		name, wait.Mean(), wait.Percentile(95), wait.Max(), errs.Mean())
}

func main() {
	fmt.Printf("cluster of %d nodes, %d jobs, identical stream:\n", nodes, jobs)
	run("FCFS", func(e *sim.Engine) batch.System {
		return batch.NewCluster(e, nodes, batch.Policy{})
	}, 0)
	run("LWF", func(e *sim.Engine) batch.System {
		return batch.NewCluster(e, nodes, batch.Policy{Discipline: batch.LWF})
	}, 0)
	run("FCFS+easy-backfill", func(e *sim.Engine) batch.System {
		return batch.NewCluster(e, nodes, batch.Policy{Backfill: batch.EasyBackfill})
	}, 0)
	run("FCFS+conservative-backfill", func(e *sim.Engine) batch.System {
		return batch.NewCluster(e, nodes, batch.Policy{Backfill: batch.ConservativeBackfill})
	}, 0)
	run("FCFS+20%-reservations", func(e *sim.Engine) batch.System {
		return batch.NewCluster(e, nodes, batch.Policy{})
	}, 5)
	run("gang(quantum=5)", func(e *sim.Engine) batch.System {
		return batch.NewGang(e, nodes, 5)
	}, 0)
	fmt.Println("\npaper §5 claims to check: backfilling shrinks waits; advance")
	fmt.Println("reservations inflate them; LWF trades mean wait for a starvation tail.")
}
