package main

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/dag"
	"repro/internal/jobio"
	"repro/internal/metasched"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// svcShape is what separates the two in-process service workloads.
type svcShape struct {
	burst int // submissions between scheduling steps
	proc  int // jobs scheduled per step; <0 drains the queue
	// quiesce runs the engine dry after every step: the closed loop waits
	// for its batch to finish, the open loop never does until Drain.
	quiesce bool
}

func runSvcSteady(rc *runCtx) (*repeatResult, error) {
	return runSvc(rc, svcShape{burst: 8, proc: -1, quiesce: true})
}

// runSvcBacklog is cmd/gridload's in-process overload: 16 arrive for every
// 12 served, the queue fills, shedding and 429s carry the excess.
func runSvcBacklog(rc *runCtx) (*repeatResult, error) {
	return runSvc(rc, svcShape{burst: 16, proc: 12})
}

const (
	svcPlacers  = 4
	svcQueueCap = 64
)

// toWire converts one flow arrival to the service's wire form: the wire
// deadline is the relative QoS budget, re-anchored at the service's own
// arrival tick.
func toWire(a workload.Arrival) jobio.Job {
	w := jobio.FromJob(a.Job)
	w.Deadline = a.Job.Deadline - a.At
	return w
}

// svcCorpusFor generates the wire-form corpus and the name index the
// probes use.
func svcCorpusFor(cfg workload.Config, n int) ([]jobio.Job, map[string]*dag.Job) {
	flow := workload.New(cfg).FlowWith(workload.ArrivalSpec{Kind: workload.ProcPoisson}, 0, n, 0)
	wires := make([]jobio.Job, len(flow))
	byName := make(map[string]*dag.Job, len(flow))
	for i, a := range flow {
		wires[i] = toWire(a)
		byName[a.Job.Name] = a.Job
	}
	return wires, byName
}

// decisions records, per job, the host instant of the first activate or
// reject event the VO emits for it: the moment the scheduler has decided.
type decisions struct {
	due map[string]time.Time // filled before the job can be decided

	mu    sync.Mutex // two shard engines report at once on fed_durable
	first map[string]time.Duration
}

func newDecisions(n int) *decisions {
	return &decisions{due: make(map[string]time.Time, n), first: make(map[string]time.Duration, n)}
}

func (d *decisions) onEvent(e metasched.Event) {
	if e.Kind != metasched.EventActivate && e.Kind != metasched.EventReject {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, seen := d.first[e.Job]; seen {
		return
	}
	if due, ok := d.due[e.Job]; ok {
		d.first[e.Job] = time.Since(due)
	}
}

func (d *decisions) ms() []float64 {
	out := make([]float64, 0, len(d.first))
	for _, v := range d.first {
		out = append(out, float64(v.Nanoseconds())/1e6)
	}
	return out
}

// runSvc drives one manual-mode service.Server on this goroutine.
func runSvc(rc *runCtx, shape svcShape) (*repeatResult, error) {
	res := newResult(rc)
	setup := time.Now()
	wires, byName := svcCorpusFor(svcCorpus(rc.seed), rc.jobs)
	if err := warmSvc(shape); err != nil {
		return nil, err
	}

	env := newEnv()
	reg := telemetry.NewRegistry()
	dec := newDecisions(len(wires))
	hooks := []func(metasched.Event){dec.onEvent}
	var probe *calendarProbe
	if rc.tr != nil {
		probe = newCalendarProbe(rc.tr.at(0), env, byName)
		hooks = append(hooks, probe.onEvent)
	}
	terminal := make(map[string]int, len(wires))
	srv, err := service.New(service.Config{
		Env:       env,
		QueueCap:  svcQueueCap,
		Telemetry: reg,
		Sched: metasched.Config{
			Seed: rc.seed, Placers: svcPlacers, Spans: rc.tr.at(0),
			Tracer: metasched.TracerFunc(func(e metasched.Event) {
				for _, h := range hooks {
					h(e)
				}
			}),
		},
		OnTerminal: func(r service.Record) { terminal[r.ID]++ },
	})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	res.Metrics["setup_s"] = time.Since(setup).Seconds()

	tr := rc.tr.at(0)
	m := startMeter()
	rc.tr.startRoot()
	root := rc.tr.rootID()
	step := func() {
		sp := tr.Start("driver.process", root)
		srv.Process(shape.proc)
		sp.End()
		if shape.quiesce {
			sp = tr.Start("driver.quiesce", root)
			srv.Quiesce()
			sp.End()
		}
	}
	accepted := make(map[string]bool, len(wires))
	var ackMs []float64
	refused := 0
	for i, w := range wires {
		sp := tr.Start("driver.submit", root)
		t0 := time.Now()
		dec.due[w.Name] = t0
		_, err := srv.Submit(w, strategyCycle[i%len(strategyCycle)], i%priorityLevels)
		ackMs = append(ackMs, float64(time.Since(t0).Nanoseconds())/1e6)
		sp.End()
		var se *service.SubmitError
		switch {
		case err == nil:
			accepted[w.Name] = true
		case errors.As(err, &se) && (se.Code == service.CodeOverloaded || se.Code == service.CodeDraining || se.Code == service.CodeInfeasible):
			refused++
		default:
			res.fail("submit %s: %v", w.Name, err)
		}
		if (i+1)%shape.burst == 0 {
			step()
		}
	}
	if shape.quiesce {
		step()
	}
	sp := tr.Start("driver.drain", root)
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	err = srv.Drain(ctx)
	cancel()
	drain := time.Since(t0)
	sp.End()
	rc.tr.endRoot()
	m.stop(res)
	if err != nil {
		res.fail("drain: %v", err)
	}

	sm := srv.Metrics()
	res.setLatencies(ackMs, dec.ms())
	res.Metrics["driver.refused_ratio"] = float64(refused+int(sm.Shed)) / float64(rc.jobs)
	res.Metrics["service.shed_per_job"] = float64(sm.Shed) / float64(rc.jobs)
	res.Metrics["service.drain_ms"] = float64(drain.Nanoseconds()) / 1e6
	res.Metrics["sim.events_per_job"] = float64(sm.EventsFired) / float64(rc.jobs)
	fillQoS(res, srv.Results())
	if _, err := fillCounters(res, reg); err != nil {
		return nil, err
	}
	if probe != nil {
		fillProbes(res, probe)
	}

	for id := range accepted {
		if terminal[id] != 1 {
			res.fail("audit: accepted job %s reached a terminal state %d times", id, terminal[id])
		}
	}
	for id, n := range terminal {
		if n > 1 && !accepted[id] {
			res.fail("audit: refused job %s reached a terminal state %d times", id, n)
		}
	}
	for _, r := range srv.Jobs() {
		if !service.Terminal(r.State) {
			res.fail("audit: job %s left in state %s after drain", r.ID, r.State)
		}
	}
	auditCalendars(env, res)
	auditResults(env, srv.Results(), res)
	return res, nil
}

// warmSvc runs warmupJobs through a throwaway server of the same shape.
func warmSvc(shape svcShape) error {
	wires, _ := svcCorpusFor(svcCorpus(envSeed), warmupJobs)
	srv, err := service.New(service.Config{
		Env: newEnv(), QueueCap: svcQueueCap,
		Sched: metasched.Config{Seed: envSeed, Placers: svcPlacers},
	})
	if err != nil {
		return err
	}
	for i, w := range wires {
		// Refusals are part of the shape being warmed; nothing is measured.
		_, _ = srv.Submit(w, strategyCycle[i%len(strategyCycle)], i%priorityLevels)
		if (i+1)%shape.burst == 0 {
			srv.Process(shape.proc)
			if shape.quiesce {
				srv.Quiesce()
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return srv.Drain(ctx)
}

// fillQoS derives the model-time metrics from the VO's finished-job
// records. Every offered job that did not complete on time — refused,
// shed, drained, rejected — counts as a miss.
func fillQoS(res *repeatResult, results []*metasched.JobResult) {
	var cost float64
	var stretch []float64
	var fallbacks, reallocations, retries, met, completed int
	for _, r := range results {
		fallbacks += r.Fallbacks
		reallocations += r.Reallocations
		retries += r.Retries
		if r.State != metasched.StateCompleted {
			continue
		}
		completed++
		cost += r.Cost
		if r.Finish <= r.Job.Deadline {
			met++
		}
		if cp := r.Job.CriticalPathLength(dag.WeightFunc{}); cp > 0 {
			stretch = append(stretch, float64(r.Finish-r.Arrival)/float64(cp))
		}
	}
	jobs := float64(res.Jobs)
	res.Metrics["metasched.fallbacks_per_job"] = float64(fallbacks) / jobs
	res.Metrics["metasched.reallocations_per_job"] = float64(reallocations) / jobs
	res.Metrics["metasched.retries_per_job"] = float64(retries) / jobs
	res.Metrics["deadline_met_ratio"] = float64(met) / jobs
	if completed > 0 {
		res.Metrics["mean_cost_cf"] = cost / float64(completed)
	}
	res.setP50("stretch_p50", stretch)
}

// fillCounters reads the exact counts off the program's own registry and
// returns the scraped totals for workload-specific ones.
func fillCounters(res *repeatResult, reg *telemetry.Registry) (map[string]float64, error) {
	c, took, err := promTotals(reg)
	if err != nil {
		return nil, err
	}
	jobs := float64(res.Jobs)
	res.Metrics["telemetry.scrape_ms"] = float64(took.Nanoseconds()) / 1e6
	res.Metrics["service.queue_wait_ms_p50"] = finite(reg.Histogram("grid_service_queue_wait_seconds", "", nil).Quantile(0.5)) * 1e3
	res.Metrics["journal.appends_per_job"] = c["grid_journal_appends_total"] / jobs
	res.Metrics["journal.fsyncs_per_job"] = c["grid_journal_fsyncs_total"] / jobs
	commits, conflicts := c["grid_placer_commits_total"], c["grid_placer_conflicts_total"]
	if commits+conflicts > 0 {
		res.Metrics["metasched.placer_conflict_ratio"] = conflicts / (commits + conflicts)
	}
	res.Metrics["metasched.placer_seq_fallbacks_per_job"] = c["grid_placer_sequential_fallbacks_total"] / jobs
	res.Metrics["strategy.levels_built_per_job"] = c["grid_strategy_levels_built_total"] / jobs
	res.Metrics["strategy.levels_failed_per_job"] = c["grid_strategy_levels_failed_total"] / jobs
	res.Metrics["criticalworks.builds_per_job"] = c["grid_criticalworks_builds_total"] / jobs
	res.Metrics["criticalworks.evaluations_per_job"] = c["grid_criticalworks_evaluations_total"] / jobs
	res.Metrics["criticalworks.collisions_per_job"] = c["grid_criticalworks_collisions_total"] / jobs
	reused := c["grid_repair_hits_total"] + c["grid_repair_splices_total"]
	if all := reused + c["grid_repair_full_rebuilds_total"]; all > 0 {
		res.Metrics["criticalworks.repair_hit_ratio"] = reused / all
	}
	return c, nil
}
