package metasched

import (
	"repro/internal/simtime"
	"repro/internal/strategy"
)

// launch is the engine-side half of an activation, for a distribution whose
// windows reserve just booked: the job's bookkeeping, the activate record,
// its start and finish events and the task-failure draw. Engine goroutine
// only.
//
// The very first activation (in whichever domain it happens) defines the
// job's planned start for the Fig. 4c deviation metric.
func (m *JobManager) launch(aj *activeJob, d *strategy.Distribution) {
	now := m.vo.engine.Now()
	aj.current = d
	aj.activate = now
	aj.used[d.Level] = true
	if !aj.everActivated {
		aj.everActivated = true
		aj.result.PlannedStart = d.Start
	}
	if aj.failedAt >= 0 {
		// The job was down since its last failure; this activation ends
		// the outage-induced wait.
		aj.result.Downtime += now - aj.failedAt
		aj.failedAt = -1
	}
	aj.result.ActualStart = d.Start
	m.vo.trace(Event{Kind: EventActivate, Job: aj.result.Job.Name, Domain: m.domain,
		Level: int(d.Level), Start: d.Start, End: d.Finish})
	aj.startEv = m.vo.engine.At(d.Start, "start", func() {
		aj.result.State = StateExecuting
		m.vo.trace(Event{Kind: EventStart, Job: aj.result.Job.Name, Domain: m.domain})
	})
	aj.finishEv = m.vo.engine.At(d.Finish, "finish", func() {
		m.complete(aj)
	})
	m.armTaskFailure(aj, d)
	aj.result.State = StatePlanned
	if d.Start <= now {
		aj.result.State = StateExecuting
	}
}

// armTaskFailure draws, at activation time, whether this plan will lose a
// task mid-run and schedules the failure if so. Drawing here keeps the
// failure stream a deterministic function of the activation sequence.
func (m *JobManager) armTaskFailure(aj *activeJob, d *strategy.Distribution) {
	vo := m.vo
	if vo.failRng == nil {
		return
	}
	span := d.Finish - d.Start
	if span < 2 || !vo.failRng.Bool(vo.cfg.Faults.TaskFailRate) {
		return
	}
	// The task dies strictly inside the execution window, after the start
	// event of its tick (start events precede failure events in the queue).
	at := d.Start + 1 + vo.failRng.Int64n(int64(span-1))
	aj.failEv = vo.engine.At(at, "task-fail", func() {
		m.taskFailed(aj, "task died mid-run")
	})
}

// complete finalizes a job that ran to plan.
func (m *JobManager) complete(aj *activeJob) {
	d := aj.current
	aj.result.Finish = d.Finish
	aj.result.Cost = float64(d.Cost)
	aj.result.TTLs = append(aj.result.TTLs, d.Finish-aj.activate)
	aj.result.Placements = d.Placements
	var total simtime.Time
	for _, p := range d.Placements {
		total += p.Window.Len()
	}
	aj.result.MeanTaskTime = 0
	if len(d.Placements) > 0 {
		aj.result.MeanTaskTime = float64(total) / float64(len(d.Placements))
	}
	m.vo.finalize(aj, StateCompleted)
}

// release removes the job's current plan from the calendars, cancels its
// pending events and records the plan's time-to-live. The caller decides
// what happens next (fallback, retry, rejection).
func (m *JobManager) release(aj *activeJob) {
	now := m.vo.engine.Now()
	aj.result.TTLs = append(aj.result.TTLs, now-aj.activate)
	aj.startEv.Cancel()
	aj.finishEv.Cancel()
	aj.failEv.Cancel()
	for _, id := range m.pool {
		m.vo.env.Node(id).Calendar().ReleaseJob(aj.result.Job.Name)
	}
	aj.current = nil
	aj.result.State = StatePlanned
}

// teardown is an eviction: the plan of a not-yet-started job is removed
// because the environment claimed one of its windows.
func (m *JobManager) teardown(aj *activeJob) {
	m.vo.trace(Event{Kind: EventEvict, Job: aj.result.Job.Name, Domain: m.domain})
	m.release(aj)
}

// finalize records the job's terminal state.
func (vo *VO) finalize(aj *activeJob, st State) {
	aj.result.State = st
	kind := EventComplete
	if st == StateRejected {
		aj.result.Finish = vo.engine.Now()
		kind = EventReject
	}
	if aj.failedAt >= 0 {
		aj.result.Downtime += vo.engine.Now() - aj.failedAt
		aj.failedAt = -1
	}
	vo.trace(Event{Kind: kind, Job: aj.result.Job.Name, Domain: aj.result.Domain})
	delete(vo.active, aj.result.Job.Name)
	vo.results = append(vo.results, aj.result)
	// Keep the calendars lean on long runs: finished reservations cannot
	// affect any future fit.
	if len(vo.results)%64 == 0 {
		now := vo.engine.Now()
		for _, n := range vo.env.Nodes() {
			n.Calendar().PruneBefore(now)
		}
	}
}
