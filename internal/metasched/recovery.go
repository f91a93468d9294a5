package metasched

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/faults"
	"repro/internal/resource"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// taskFailed handles a running job losing a task (mid-run failure or a
// node crashing under it): the broken plan is released and the job enters
// the recovery ladder — bounded retry with exponential backoff re-anchoring
// the strategy in the same domain, then the remaining supporting levels,
// then cross-domain reallocation, then rejection.
func (m *JobManager) taskFailed(aj *activeJob, detail string) {
	vo := m.vo
	now := vo.engine.Now()
	aj.result.TaskFailures++
	vo.trace(Event{Kind: EventTaskFailed, Job: aj.result.Job.Name, Domain: m.domain, Detail: detail})
	m.release(aj)
	aj.failedAt = now
	if aj.result.Retries < vo.cfg.Faults.MaxRetries {
		aj.result.Retries++
		at := now + vo.cfg.Faults.JitteredBackoff(aj.result.Retries, vo.jitterRng)
		vo.trace(Event{Kind: EventRetry, Job: aj.result.Job.Name, Domain: m.domain, Level: aj.result.Retries, Start: at})
		vo.engine.At(at, "retry", func() {
			m.adopt(aj)
		})
		return
	}
	m.fallback(aj)
}

// fallback re-anchors the next supporting level at the current time — one
// critical-works build against the live books per level tried; when the
// strategy is exhausted the job goes back to the metascheduler.
func (m *JobManager) fallback(aj *activeJob) {
	vo := m.vo
	now := vo.engine.Now()
	tried := 0
	sp := vo.cfg.Spans.Start("metasched.fallback", 0)
	sp.SetStr("job", aj.result.Job.Name).SetStr("domain", m.domain)
	defer func() { sp.SetInt("levels_tried", int64(tried)).End() }()
	// Try remaining levels in the cost order of the original generation.
	for {
		next := aj.strat.AdmissibleAfter(aj.used)
		if next == nil {
			vo.reallocate(aj)
			return
		}
		aj.used[next.Level] = true
		tried++
		// buildCtx is re-acquired per level: each level is one build, with
		// its own build timeout.
		ctx, cancel := vo.buildCtx(aj.result.Job.Name)
		d, err := m.gen.BuildLevelCtx(telemetry.ContextWithSpan(ctx, sp.ID()), aj.strat.Scheduled, aj.result.Job.Name, aj.result.Type, next.Level, vo.books, now)
		cancel()
		if err != nil || d == nil || !d.Admissible {
			continue
		}
		aj.result.Fallbacks++
		m.vo.trace(Event{Kind: EventFallback, Job: aj.result.Job.Name, Domain: m.domain, Level: int(d.Level)})
		m.reserve(aj, d)
		m.launch(aj, d)
		return
	}
}

// reallocate moves the job to another domain (Fig. 1's job reallocation);
// with no domains left, the job is rejected.
func (vo *VO) reallocate(aj *activeJob) {
	next := vo.leastLoadedWith(aj.triedDom, nil)
	if next == nil {
		vo.finalize(aj, StateRejected)
		return
	}
	aj.triedDom[next.idx] = true
	aj.result.Reallocations++
	aj.result.Domain = next.domain
	aj.manager = next
	vo.trace(Event{Kind: EventReallocate, Job: aj.result.Job.Name, Domain: next.domain})
	next.adopt(aj)
}

// outageDown applies one fault-schedule outage: every affected node is
// marked down and its reservation book voided FIRST (so recovery never
// replans onto a sibling node dying in the same event), then the evicted
// jobs recover in deterministic name order. Running jobs whose unfinished
// windows were voided go through the task-failure ladder; waiting jobs
// through the ordinary eviction/fallback path.
func (vo *VO) outageDown(o faults.Outage) {
	now := vo.engine.Now()
	ids := vo.outageNodes(o)
	vo.nodeOutages++
	if o.Domain != "" {
		vo.domainOutages++
	}
	vo.trace(Event{Kind: EventNodeDown, Domain: o.Domain, Node: int(o.Node),
		Start: o.Interval.Start, End: o.Interval.End})
	victims := make(map[string]*activeJob)
	for _, id := range ids {
		n := vo.env.Node(id)
		n.MarkDown(now)
		vo.voided = n.Calendar().Void(vo.voided[:0])
		for _, r := range vo.voided {
			if r.Owner == resource.External {
				continue
			}
			// A window that already finished did its work before the
			// crash; only unfinished windows break the owning job.
			if r.Interval.End <= now {
				continue
			}
			if aj, ok := vo.active[r.Owner.Job]; ok && aj.current != nil {
				victims[r.Owner.Job] = aj
			}
		}
	}
	names := make([]string, 0, len(victims))
	for name := range victims {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		aj := victims[name]
		if aj.result.State == StateExecuting {
			aj.manager.taskFailed(aj, "node down under running task")
			continue
		}
		aj.manager.teardown(aj)
		aj.manager.fallback(aj)
	}
}

// outageUp ends one outage window.
func (vo *VO) outageUp(o faults.Outage) {
	now := vo.engine.Now()
	for _, id := range vo.outageNodes(o) {
		vo.env.Node(id).MarkUp(now)
	}
	vo.trace(Event{Kind: EventNodeUp, Domain: o.Domain, Node: int(o.Node)})
}

// outageNodes lists the nodes an outage takes down: every node of its
// domain, or its one node.
func (vo *VO) outageNodes(o faults.Outage) []resource.NodeID {
	if o.Domain == "" {
		return []resource.NodeID{o.Node}
	}
	nodes := vo.env.ByDomain(o.Domain)
	ids := make([]resource.NodeID, 0, len(nodes))
	for _, n := range nodes {
		ids = append(ids, n.ID)
	}
	return ids
}

// scheduleNextExternal arms the background-load injector.
func (vo *VO) scheduleNextExternal() {
	gap := simtime.Time(vo.extRng.Exp(vo.cfg.ExternalMeanGap)) + 1
	at := vo.engine.Now() + gap
	if vo.cfg.ExternalUntil > 0 && at > vo.cfg.ExternalUntil {
		return
	}
	vo.engine.At(at, "external-load", func() {
		vo.injectExternal()
		vo.scheduleNextExternal()
	})
}

// injectExternal books one random background job: a random node, the
// earliest window after the lead time that the local system can grant.
func (vo *VO) injectExternal() {
	now := vo.engine.Now()
	n := resource.NodeID(vo.extRng.Intn(vo.env.NumNodes()))
	dur := simtime.Time(vo.extRng.Int64Between(int64(vo.cfg.ExternalDurLo), int64(vo.cfg.ExternalDurHi)))
	if dur <= 0 {
		return
	}
	vo.InjectExternalLoad(n, dur, now+vo.cfg.ExternalLead)
}

// InjectExternalLoad models an independent local batch job arriving at a
// node: the local system places it at the earliest window at or after
// `earliest` that avoids guaranteed reservations (running/started grid
// jobs, other locals), and — exercising the local system's autonomy — it
// outranks grid reservations whose jobs have not started yet: those plans
// are evicted and replan. It returns the booked window.
func (vo *VO) InjectExternalLoad(node resource.NodeID, dur, earliest simtime.Time) (simtime.Interval, bool) {
	if dur <= 0 {
		return simtime.Interval{}, false
	}
	if !vo.env.Node(node).Up() {
		// The node's local batch system is down; the arrival is lost.
		return simtime.Interval{}, false
	}
	cal := vo.env.Node(node).Calendar()
	start := earliest
	for iter := 0; iter < 10000; iter++ {
		iv := simtime.Interval{Start: start, End: start + dur}
		blocked := simtime.Time(-1)
		for _, c := range cal.ConflictsWith(iv) {
			if vo.isProtected(c.Owner) && c.Interval.End > blocked {
				blocked = c.Interval.End
			}
		}
		if blocked >= 0 {
			start = blocked
			continue
		}
		if vo.InjectExternal(node, iv) {
			return iv, true
		}
		return simtime.Interval{}, false
	}
	return simtime.Interval{}, false
}

// isProtected reports whether a reservation owner cannot be preempted by
// local load: externals and grid jobs that already started.
func (vo *VO) isProtected(owner resource.Owner) bool {
	if owner == resource.External {
		return true
	}
	aj, ok := vo.active[owner.Job]
	return !ok || aj.result.State != StatePlanned
}

// InjectExternal attempts one background reservation on the given node and
// window, applying the eviction rules: plans of jobs that have not started
// yet yield to it (and get evicted); executing jobs and other externals
// win, and the event is dropped. It reports whether the reservation was
// booked. Exposed for deterministic scenario construction.
func (vo *VO) InjectExternal(node resource.NodeID, iv simtime.Interval) bool {
	n := vo.env.Node(node)
	var victims []*activeJob
	// A view of the book: read to its end before the teardowns below move it.
	for _, c := range n.Calendar().ConflictsWith(iv) {
		if vo.isProtected(c.Owner) {
			return false // externals do not fight each other; started jobs win
		}
		victims = append(victims, vo.active[c.Owner.Job])
	}
	// In name order, each job once: one name is one *activeJob.
	slices.SortFunc(victims, func(a, b *activeJob) int { return strings.Compare(a.result.Job.Name, b.result.Job.Name) })
	victims = slices.Compact(victims)
	// Tear every victim down first so the external's booking cannot fail,
	// then let the victims replan against the post-event state.
	for _, v := range victims {
		v.manager.teardown(v)
	}
	if err := n.Calendar().Reserve(iv, resource.External); err != nil {
		panic(fmt.Sprintf("metasched: external booking failed after eviction: %v", err))
	}
	vo.trace(Event{Kind: EventExternal, Node: int(node), Start: iv.Start, End: iv.End})
	for _, v := range victims {
		v.manager.fallback(v)
	}
	return true
}
