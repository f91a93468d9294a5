package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/jobio"
	"repro/internal/metasched"
	"repro/internal/scalereport"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// runInProcess drives a manual-mode service deterministically: the whole
// run happens on this goroutine (no engine loop), so every admission
// decision, shed choice and terminal state is a pure function of the
// seed and flags. Wall-clock only leaks into the report's wallClock
// section.
//
// The open-loop shape: arrivals are submitted in bursts of o.burst
// back-to-back (the generator never waits for the scheduler — that is
// what "open loop" means), then o.proc jobs are scheduled. With
// proc < burst the backlog grows by burst−proc per step until the queue
// bound is hit, after which shedding and 429s carry the overload — the
// same dynamics a sustained-overload daemon sees, in model time. The run
// ends with a Drain while the queue is still loaded.
func runInProcess(o options) (*scalereport.Report, error) {
	gen := workload.New(workloadConfig(o))
	env := gen.Environment(o.domains)

	terminal := map[string]uint64{} // terminal-state stream tally
	reg := telemetry.NewRegistry()
	srv, err := service.New(service.Config{
		Env:       env,
		QueueCap:  o.queue,
		Telemetry: reg,
		Sched:     metasched.Config{Seed: o.seed, Placers: o.placers},
		OnTerminal: func(r service.Record) {
			terminal[r.State]++
		},
	})
	if err != nil {
		return nil, err
	}

	flow := gen.FlowWith(o.spec, 0, o.jobs, 0)
	det := scalereport.Deterministic{}
	var clientLat []float64
	start := time.Now()
	for i, a := range flow {
		wire := jobio.FromJob(a.Job)
		// The wire deadline is the relative QoS budget; the flow's
		// absolute deadline re-anchors at the service's own arrival tick.
		wire.Deadline = int64(a.Job.Deadline - a.At)
		t0 := time.Now()
		_, err := srv.Submit(wire, o.strategy, i%o.priorities)
		clientLat = append(clientLat, time.Since(t0).Seconds())
		if err == nil {
			det.ClientAccepted++
		} else {
			var se *service.SubmitError
			if !errors.As(err, &se) {
				return nil, fmt.Errorf("submit %s: %w", wire.Name, err)
			}
			switch se.Code {
			case service.CodeOverloaded:
				det.Client429++
				if se.RetryAfter <= 0 {
					det.RetryAfterViolations++
				}
			case service.CodeDraining:
				det.Client503++
				if se.RetryAfter <= 0 {
					det.RetryAfterViolations++
				}
			case service.CodeInfeasible:
				// Ledgered and counted by the service's own counters.
			default:
				return nil, fmt.Errorf("submit %s: unexpected admission error: %w", wire.Name, se)
			}
		}
		if (i+1)%o.burst == 0 {
			srv.Process(o.proc)
		}
	}

	// Drain under load: still-queued jobs snapshot as drained, in-flight
	// work runs to completion.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	elapsed := time.Since(start).Seconds()

	m := srv.Metrics()
	det.Submitted = m.Submitted
	det.Accepted = m.Accepted
	det.Completed = m.Completed
	det.Rejected = m.Rejected
	det.Shed = m.Shed
	det.Infeasible = m.Infeasible
	det.Overloaded = m.Overloaded
	det.Drained = m.Drained
	det.QueueHighWater = m.QueueHighWater
	det.EngineTicks = m.EngineNow
	det.TerminalByState = terminal
	if m.EngineNow > 0 {
		det.GoodputPerKTicks = float64(m.Completed) * 1000 / float64(m.EngineNow)
	}
	det.PlacerCommits = reg.Counter("grid_placer_commits_total", "").Value()

	// Admission-latency percentiles from the same fixed-bucket histogram
	// /metrics exposes, via telemetry.Quantile.
	qw := reg.Histogram("grid_service_queue_wait_seconds", "", nil)
	wall := scalereport.WallClock{
		ElapsedSeconds: elapsed,
		AdmissionP50:   finiteOrZero(qw.Quantile(0.5)),
		AdmissionP95:   finiteOrZero(qw.Quantile(0.95)),
		AdmissionP99:   finiteOrZero(qw.Quantile(0.99)),
		AdmissionP999:  finiteOrZero(qw.Quantile(0.999)),
		ClientP50:      scalereport.Percentile(clientLat, 0.5),
		ClientP95:      scalereport.Percentile(clientLat, 0.95),
		ClientP99:      scalereport.Percentile(clientLat, 0.99),
		ClientP999:     scalereport.Percentile(clientLat, 0.999),
	}
	if elapsed > 0 {
		wall.GoodputJobsPerSec = float64(m.Completed) / elapsed
	}
	return &scalereport.Report{
		Schema:        scalereport.Schema,
		Config:        runConfig(o),
		Deterministic: det,
		Wall:          wall,
	}, nil
}

// finiteOrZero maps an empty-histogram NaN (or an infinite estimate) to 0
// so the artifact always marshals.
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
