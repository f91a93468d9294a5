package metasched

import (
	"context"
	"fmt"

	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/telemetry"
)

// Submit schedules a job of the given strategy family for arrival at `at`.
// It rejects — with an error, before any engine state changes — duplicate
// job names (a second submission would corrupt the active-job registry,
// which is keyed by name), arrivals scheduled in the engine's past, and
// submissions after Close: all three used to corrupt state silently or
// panic deep inside the engine.
func (vo *VO) Submit(job *dag.Job, typ strategy.Type, at simtime.Time) error {
	return vo.SubmitPrio(job, typ, at, 0)
}

// SubmitPrio is Submit with an explicit priority for the placement
// arbiter: when batched placement is enabled (Config.Placers > 1) and
// several jobs arrive at the same tick, the higher priority plans first in
// its domain (ties by submission order) and a later job plans on the books
// with those windows already taken, per the paper's priority/QoS
// collision-resolution rules. With placers ≤ 1 the priority is irrelevant —
// every batch is a singleton, so jobs place one at a time in submission
// order.
func (vo *VO) SubmitPrio(job *dag.Job, typ strategy.Type, at simtime.Time, prio int) error {
	if vo.closed {
		return fmt.Errorf("metasched: job %q submitted after the VO was closed", job.Name)
	}
	if vo.submitted[job.Name] {
		return fmt.Errorf("metasched: duplicate job %q already submitted", job.Name)
	}
	if at < vo.engine.Now() {
		return fmt.Errorf("metasched: job %q arrival %d is in the past (now %d)", job.Name, at, vo.engine.Now())
	}
	vo.submitted[job.Name] = true
	p := pendingArrival{job: job, typ: typ, prio: prio, seq: vo.batchSeq}
	vo.batchSeq++
	if vo.cfg.Placers <= 1 {
		// Width 1: a batch of one with its own engine event, so events
		// already queued for this tick (external load, outages, other
		// arrivals) interleave with the arrivals in submission order.
		vo.engine.At(at, "arrive", func() { vo.arriveBatch([]pendingArrival{p}) })
		return nil
	}
	if len(vo.pending[at]) == 0 {
		vo.engine.At(at, "arrive-batch", func() {
			batch := vo.pending[at]
			delete(vo.pending, at)
			vo.arriveBatch(batch)
		})
	}
	vo.pending[at] = append(vo.pending[at], p)
	return nil
}

// Close marks the VO finished: every later Submit fails with an error.
// The engine and results remain readable; closing is idempotent. The
// service layer closes the VO when a drain completes so that a straggling
// submission cannot revive a drained engine.
func (vo *VO) Close() {
	vo.closed = true
}

// domainAllowed consults the configured DomainFilter; nil admits all.
func (vo *VO) domainAllowed(domain string) bool {
	return vo.cfg.DomainFilter == nil || vo.cfg.DomainFilter(domain)
}

// excluded reports whether placement may not pick this domain: set in
// except (by idx; nil excludes none), vetoed by the DomainFilter, or down.
func (m *JobManager) excluded(except []bool) bool {
	return (except != nil && except[m.idx]) || !m.vo.env.DomainUp(m.domain) || !m.vo.domainAllowed(m.domain)
}

// buildCtx returns the context bounding one build of the job, or
// Background, and the cancel to call when that build returns.
func (vo *VO) buildCtx(jobName string) (context.Context, context.CancelFunc) {
	if vo.cfg.BuildCtx == nil {
		return context.Background(), func() {}
	}
	return vo.cfg.BuildCtx(jobName)
}

// adopt places the job in this domain, or sends it back to the
// metascheduler when no level is admissible. It is how a job enters a domain
// on the recovery paths (reallocation, retry): the one-member case of an
// arriving batch (placeBatch).
func (m *JobManager) adopt(aj *activeJob) {
	if d, err := m.place(aj, false); d == nil {
		m.vo.unplaced(aj, err)
	}
}

// place is one job's placement in this domain, inside one engine event: it
// generates (or regenerates) the job's strategy on the live books, installs
// it, books the cheapest admissible distribution's windows and launches it,
// returning that distribution — nil, with the generation error if there was
// one, when no level is admissible; the caller then sends the job to
// unplaced. initial marks the very first generation on the adopt span.
func (m *JobManager) place(aj *activeJob, initial bool) (*strategy.Distribution, error) {
	vo := m.vo
	ctx, cancel := vo.buildCtx(aj.result.Job.Name)
	sp := vo.cfg.Spans.Start("metasched.adopt", telemetry.SpanFromContext(ctx))
	sp.SetStr("job", aj.result.Job.Name).SetStr("domain", m.domain)
	if initial {
		sp.SetInt("initial", 1)
	}
	st, err := m.generate(telemetry.ContextWithSpan(ctx, sp.ID()), aj)
	cancel()
	if err != nil {
		sp.SetStr("result", "error").End()
		return nil, err
	}
	sp.SetStr("result", "ok").End()
	aj.install(st)
	d := st.CheapestAdmissible()
	if d != nil {
		m.reserve(aj, d)
		m.launch(aj, d)
	}
	return d, nil
}

// unplaced sends a job whose plan found no admissible level back to the
// metascheduler. Structural generation failures cannot happen for
// generator-produced jobs; they are rejected rather than crash the
// simulation.
func (vo *VO) unplaced(aj *activeJob, err error) {
	if err != nil {
		vo.finalize(aj, StateRejected)
		return
	}
	vo.reallocate(aj)
}

// generate builds aj's strategy in this domain on the live books. Whatever
// sent the job round again — a retry, a reallocation — its graph has not
// changed, so a job that already has a strategy keeps what that one derived
// from the graph alone (strategy.Generator.RegenerateCtx). It reads aj and
// writes nothing.
func (m *JobManager) generate(ctx context.Context, aj *activeJob) (*strategy.Strategy, error) {
	books, now := m.vo.books, m.vo.engine.Now()
	if aj.strat != nil {
		return m.gen.RegenerateCtx(ctx, aj.strat, books, now)
	}
	return m.gen.GenerateCtx(ctx, aj.result.Job, aj.result.Type, books, now)
}

// install makes st the job's current strategy, no level of it yet used.
func (aj *activeJob) install(st *strategy.Strategy) {
	aj.strat = st
	aj.result.Scheduled = st.Scheduled
	aj.used = strategy.Levels{}
}

// reserve is the only way a plan reaches the live calendars: the paper's
// all-or-nothing advance reservation of every window at resource-request
// time (§3, §5). Pass 1 asks each placement's node whether its window is
// still free; pass 2 reserves every window. Every plan it is handed was
// built on these books a moment ago, inside the same engine event, by their
// only writer (DESIGN.md §12), so a window that is not free is an internal
// bug: reserve panics, naming the job, the level and the window, and pass 1
// finds such a window before anything is written. It writes calendars and
// nothing else.
func (m *JobManager) reserve(aj *activeJob, d *strategy.Distribution) {
	env := m.vo.env
	for _, p := range d.Placements {
		if r, busy := env.Node(p.Node).Calendar().ConflictWith(p.Window); busy {
			panic(fmt.Sprintf("metasched: %s's level %d window %v on node %d is taken by %v %v",
				aj.result.Job.Name, d.Level, p.Window, p.Node, r.Owner, r.Interval))
		}
	}
	for _, p := range d.Placements {
		owner := resource.Owner{Job: aj.result.Job.Name, Task: aj.strat.Scheduled.Task(p.Task).Name}
		if err := env.Node(p.Node).Calendar().Reserve(p.Window, owner); err != nil {
			panic(fmt.Sprintf("metasched: %s's level %d window %v on node %d: %v",
				aj.result.Job.Name, d.Level, p.Window, p.Node, err))
		}
	}
}
