package main

import (
	"runtime"
	"time"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/faults"
	"repro/internal/metasched"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// runVOFaults is the researcher's path: no service, the VO and the
// simulation engine driven directly, one arrival at a time (Placers 0),
// with background load, node and domain outages and mid-run task failures
// switched on so the whole recovery ladder runs.
func runVOFaults(rc *runCtx) (*repeatResult, error) {
	res := newResult(rc)
	setup := time.Now()
	flow := workload.New(fig4Corpus(rc.seed)).Flow(0, rc.jobs, 0)
	byName := make(map[string]*dag.Job, len(flow))
	types := make([]strategy.Type, len(flow))
	for i, a := range flow {
		byName[a.Job.Name] = a.Job
		typ, err := strategy.ParseType(strategyCycle[i%len(strategyCycle)])
		if err != nil {
			return nil, err
		}
		types[i] = typ
	}
	warmFlow := workload.New(fig4Corpus(envSeed)).Flow(0, warmupJobs, 0)
	warm := newVORun(warmFlow, envSeed, nil)
	for i, a := range warmFlow {
		if err := warm.vo.Submit(a.Job, types[i%len(types)], a.At); err != nil {
			return nil, err
		}
	}
	warm.engine.Run()

	// A job is due for its decision the host instant the engine reaches
	// its arrival event.
	dec := newDecisions(len(flow))
	terminal := make(map[string]int, len(flow))
	run := newVORun(flow, rc.seed, rc.tr.at(0))
	run.hooks = []func(metasched.Event){dec.onEvent, func(e metasched.Event) {
		switch e.Kind {
		case metasched.EventArrive:
			dec.due[e.Job] = time.Now()
		case metasched.EventComplete, metasched.EventReject:
			terminal[e.Job]++
		}
	}}
	var probe *calendarProbe
	if rc.tr != nil {
		probe = newCalendarProbe(rc.tr.at(0), run.env, byName)
		run.hooks = append(run.hooks, probe.onEvent)
	}
	runtime.GC()
	res.Metrics["setup_s"] = time.Since(setup).Seconds()

	tr := rc.tr.at(0)
	m := startMeter()
	rc.tr.startRoot()
	root := rc.tr.rootID()
	for i, a := range flow {
		sp := tr.Start("driver.submit", root)
		err := run.vo.Submit(a.Job, types[i], a.At)
		sp.End()
		if err != nil {
			res.fail("submit %s: %v", a.Job.Name, err)
		}
	}
	sp := tr.Start("driver.quiesce", root)
	run.engine.Run()
	sp.End()
	rc.tr.endRoot()
	m.stop(res)

	// A bare VO has no admission step: the first answer a submitter gets
	// is the decision itself, so acknowledgement and decision coincide.
	res.setLatencies(dec.ms(), dec.ms())
	res.Metrics["sim.events_per_job"] = float64(run.engine.Fired()) / float64(rc.jobs)
	fillQoS(res, run.vo.Results())
	if _, err := fillCounters(res, run.reg); err != nil {
		return nil, err
	}
	if probe != nil {
		fillProbes(res, probe)
	}

	for _, a := range flow {
		if n := terminal[a.Job.Name]; n != 1 {
			res.fail("audit: job %s reached a terminal state %d times", a.Job.Name, n)
		}
	}
	auditCalendars(run.env, res)
	auditResults(run.env, run.vo.Results(), res)
	return res, nil
}

// voRun is one VO over a fresh environment and engine, configured as the
// availability experiment (E12) plus Fig. 4's background load.
type voRun struct {
	env    *resource.Environment
	engine *sim.Engine
	vo     *metasched.VO
	reg    *telemetry.Registry
	hooks  []func(metasched.Event)
}

func newVORun(flow []workload.Arrival, seed uint64, spans *telemetry.Tracer) *voRun {
	r := &voRun{env: newEnv(), engine: sim.New(), reg: telemetry.NewRegistry()}
	until := flow[len(flow)-1].At + 200
	mtbf, mttr := faults.ForAvailability(0.98, 20)
	r.vo = metasched.NewVO(r.engine, r.env, metasched.Config{
		ExternalMeanGap: 5, ExternalLead: 8, ExternalDurLo: 10, ExternalDurHi: 30, ExternalUntil: until,
		Objective: criticalworks.MinCost,
		Seed:      seed,
		Telemetry: r.reg,
		Spans:     spans,
		Faults: faults.Config{
			MTBF: mtbf, MTTR: mttr, DomainOutageProb: 0.1,
			TaskFailRate: 0.05, MaxRetries: 2, Until: until, Seed: seed,
		},
		Tracer: metasched.TracerFunc(func(e metasched.Event) {
			for _, h := range r.hooks {
				h(e)
			}
		}),
	})
	return r
}
