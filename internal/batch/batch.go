// Package batch simulates the local batch-job management systems that sit
// at the bottom of the paper's hierarchy (Fig. 1). Each cluster runs a
// space-sharing queueing policy — FCFS (the paper's experimental default,
// §5), LWF (least work first), EASY or conservative backfilling — or gang
// scheduling (time-sharing), and supports the advance reservations whose
// interaction with queue waiting time §5 discusses.
package batch

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/simtime"
)

// Request is a resource request submitted to a local batch system: `Nodes`
// processors for `Walltime` ticks (the user estimate that reservations are
// sized by). Runtime is the actual duration; a job whose runtime exceeds
// its walltime is killed at the walltime boundary, as real batch systems
// do.
type Request struct {
	ID       string
	Nodes    int
	Walltime simtime.Time
	Runtime  simtime.Time
}

// Outcome records the fate of one request.
type Outcome struct {
	Request
	Arrival simtime.Time
	// ForecastStart is the start time predicted at submission, used for
	// the §5 start-time forecast error comparison.
	ForecastStart simtime.Time
	Start         simtime.Time
	End           simtime.Time
	// Killed reports that the job exceeded its walltime.
	Killed bool
	// Reserved marks jobs submitted as advance reservations.
	Reserved bool
}

// Wait returns the queueing delay.
func (o Outcome) Wait() simtime.Time { return o.Start - o.Arrival }

// ForecastError returns |actual − forecast| start time.
func (o Outcome) ForecastError() simtime.Time {
	d := o.Start - o.ForecastStart
	if d < 0 {
		return -d
	}
	return d
}

// System is any local batch scheduler: the space-sharing Cluster and the
// time-sharing Gang both implement it.
type System interface {
	// Submit enqueues a request at the engine's current time.
	Submit(r Request)
	// Outcomes returns the completed jobs so far.
	Outcomes() []Outcome
	// Name identifies the policy for reports.
	Name() string
}

// Discipline orders the waiting queue.
type Discipline int

const (
	// FCFS serves in arrival order.
	FCFS Discipline = iota
	// LWF serves least work (walltime × nodes) first.
	LWF
)

// Backfill selects the backfilling variant layered on the discipline.
type Backfill int

const (
	// NoBackfill blocks strictly on the queue head.
	NoBackfill Backfill = iota
	// EasyBackfill lets jobs jump ahead if they do not delay the head's
	// shadow reservation (EASY/Maui-style aggressive backfilling).
	EasyBackfill
	// ConservativeBackfill gives every queued job a profile reservation;
	// jumping ahead must not delay any of them.
	ConservativeBackfill
)

// Policy is a space-sharing configuration.
type Policy struct {
	Discipline Discipline
	Backfill   Backfill
}

// Name renders the policy as in the experiment tables.
func (p Policy) Name() string {
	d := "FCFS"
	if p.Discipline == LWF {
		d = "LWF"
	}
	switch p.Backfill {
	case EasyBackfill:
		return d + "+easy-backfill"
	case ConservativeBackfill:
		return d + "+conservative-backfill"
	default:
		return d
	}
}

// queued is a waiting request with its arrival metadata.
type queued struct {
	req      Request
	arrival  simtime.Time
	forecast simtime.Time
	seq      uint64
}

// running is an executing or pre-reserved job occupying nodes.
type running struct {
	req     Request
	start   simtime.Time
	wallEnd simtime.Time // start + walltime: the reservation horizon
}

// reservation is an accepted advance reservation that has not started yet.
type reservation struct {
	req     Request
	arrival simtime.Time
	startAt simtime.Time
}

// Cluster is a space-sharing batch system over `nodes` identical
// processors, driven by a sim.Engine.
type Cluster struct {
	engine *sim.Engine
	nodes  int
	policy Policy

	queue    []*queued
	running  []*running
	reserved []*reservation
	outcomes []Outcome
	seq      uint64

	// OnComplete, when set, is called synchronously with every outcome as
	// it is recorded.
	OnComplete func(Outcome)
}

// NewCluster creates a cluster of the given size. nodes must be positive.
func NewCluster(engine *sim.Engine, nodes int, policy Policy) *Cluster {
	if nodes <= 0 {
		panic(fmt.Sprintf("batch: cluster with %d nodes", nodes))
	}
	return &Cluster{engine: engine, nodes: nodes, policy: policy}
}

// Name implements System.
func (c *Cluster) Name() string { return c.policy.Name() }

// Outcomes implements System.
func (c *Cluster) Outcomes() []Outcome { return append([]Outcome(nil), c.outcomes...) }

// Submit implements System. Requests needing more nodes than the cluster
// has are rejected with a panic: the caller sized the request wrongly.
func (c *Cluster) Submit(r Request) {
	if r.Nodes <= 0 || r.Nodes > c.nodes {
		panic(fmt.Sprintf("batch: request %q wants %d of %d nodes", r.ID, r.Nodes, c.nodes))
	}
	if r.Walltime <= 0 || r.Runtime <= 0 {
		panic(fmt.Sprintf("batch: request %q has non-positive times", r.ID))
	}
	now := c.engine.Now()
	q := &queued{req: r, arrival: now, seq: c.seq}
	c.seq++
	q.forecast = c.forecastStart(q)
	c.queue = append(c.queue, q)
	c.dispatch()
}

// SubmitReservation books an advance reservation: the job will occupy its
// nodes from startAt for its walltime. It returns false when the profile
// cannot honour the window (already promised to other reservations or
// running jobs).
func (c *Cluster) SubmitReservation(r Request, startAt simtime.Time) bool {
	if r.Nodes <= 0 || r.Nodes > c.nodes {
		panic(fmt.Sprintf("batch: reservation %q wants %d of %d nodes", r.ID, r.Nodes, c.nodes))
	}
	now := c.engine.Now()
	if startAt < now {
		return false
	}
	// A reservation must fit against running jobs and other reservations;
	// queued jobs yield (that is what makes reservations hurt queue waits).
	p := c.baseProfile(now, false)
	if !p.fitsAt(startAt, r.Walltime, r.Nodes) {
		return false
	}
	res := &reservation{req: r, arrival: now, startAt: startAt}
	c.reserved = append(c.reserved, res)
	c.engine.At(startAt, "reservation-start", func() { c.startReservation(res) })
	// New blocked window may invalidate queued jobs' plans; re-dispatch.
	c.dispatch()
	return true
}

func (c *Cluster) startReservation(res *reservation) {
	for i, r := range c.reserved {
		if r == res {
			c.reserved = append(c.reserved[:i], c.reserved[i+1:]...)
			break
		}
	}
	// A reservation's forecast is its own fixed start time.
	c.start(res.req, res.arrival, res.startAt, res.startAt, true)
}

// baseProfile builds the availability profile from running jobs (to their
// walltime horizon) and pending advance reservations; includeQueue adds
// conservative-style reservations for every queued job in policy order.
func (c *Cluster) baseProfile(now simtime.Time, includeQueue bool) *profile {
	p := newProfile(c.nodes)
	for _, r := range c.running {
		end := r.wallEnd
		if end < now {
			end = now // overdue jobs are killed at wallEnd; defensive
		}
		p.subtract(simtime.Interval{Start: now, End: end}, r.req.Nodes)
	}
	for _, res := range c.reserved {
		p.subtract(simtime.Interval{Start: res.startAt, End: res.startAt + res.req.Walltime}, res.req.Nodes)
	}
	if includeQueue {
		for _, q := range c.ordered() {
			st, ok := p.earliestFit(now, q.req.Walltime, q.req.Nodes)
			if !ok {
				continue
			}
			p.subtract(simtime.Interval{Start: st, End: st + q.req.Walltime}, q.req.Nodes)
		}
	}
	return p
}

// ordered returns the queue in the discipline's service order.
func (c *Cluster) ordered() []*queued {
	out := append([]*queued(nil), c.queue...)
	switch c.policy.Discipline {
	case LWF:
		sort.Slice(out, func(a, b int) bool {
			wa := int64(out[a].req.Walltime) * int64(out[a].req.Nodes)
			wb := int64(out[b].req.Walltime) * int64(out[b].req.Nodes)
			if wa != wb {
				return wa < wb
			}
			return out[a].seq < out[b].seq
		})
	default:
		sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	}
	return out
}

// forecastStart predicts when q will start, by placing the queue (in
// policy order) plus q into the current profile, conservative-style.
func (c *Cluster) forecastStart(q *queued) simtime.Time {
	now := c.engine.Now()
	p := c.baseProfile(now, true) // queue already placed in order
	st, ok := p.earliestFit(now, q.req.Walltime, q.req.Nodes)
	if !ok {
		return now
	}
	return st
}

// dispatch starts every job the policy allows right now.
func (c *Cluster) dispatch() {
	now := c.engine.Now()
	for {
		started := c.dispatchOnce(now)
		if !started {
			return
		}
	}
}

// dispatchOnce starts at most one job; it reports whether it did.
func (c *Cluster) dispatchOnce(now simtime.Time) bool {
	if len(c.queue) == 0 {
		return false
	}
	order := c.ordered()
	base := c.baseProfile(now, false)

	// The queue head starts whenever it fits the profile right now.
	head := order[0]
	if base.fitsAt(now, head.req.Walltime, head.req.Nodes) {
		c.remove(head)
		c.start(head.req, head.arrival, head.forecast, now, false)
		return true
	}

	switch c.policy.Backfill {
	case EasyBackfill:
		shadowTime, extra := base.shadow(now, head.req.Walltime, head.req.Nodes)
		for _, q := range order[1:] {
			if !base.fitsAt(now, q.req.Walltime, q.req.Nodes) {
				continue
			}
			if now+q.req.Walltime <= shadowTime || q.req.Nodes <= extra {
				c.remove(q)
				c.start(q.req, q.arrival, q.forecast, now, false)
				return true
			}
		}
	case ConservativeBackfill:
		// Walk the queue in order, assigning profile reservations; any job
		// whose reservation lands exactly now starts.
		p := c.baseProfile(now, false)
		for _, q := range order {
			st, ok := p.earliestFit(now, q.req.Walltime, q.req.Nodes)
			if !ok {
				continue
			}
			if st == now {
				c.remove(q)
				c.start(q.req, q.arrival, q.forecast, now, false)
				return true
			}
			p.subtract(simtime.Interval{Start: st, End: st + q.req.Walltime}, q.req.Nodes)
		}
	}
	return false
}

func (c *Cluster) remove(q *queued) {
	for i, cand := range c.queue {
		if cand == q {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// start launches the job now and schedules its completion (or kill).
func (c *Cluster) start(r Request, arrival, forecast, now simtime.Time, reserved bool) {
	run := &running{req: r, start: now, wallEnd: now + r.Walltime}
	c.running = append(c.running, run)
	dur := r.Runtime
	killed := false
	if dur > r.Walltime {
		dur = r.Walltime
		killed = true
	}
	c.engine.At(now+dur, "complete", func() {
		for i, cand := range c.running {
			if cand == run {
				c.running = append(c.running[:i], c.running[i+1:]...)
				break
			}
		}
		o := Outcome{
			Request:       r,
			Arrival:       arrival,
			ForecastStart: forecast,
			Start:         now,
			End:           c.engine.Now(),
			Killed:        killed,
			Reserved:      reserved,
		}
		c.outcomes = append(c.outcomes, o)
		if c.OnComplete != nil {
			c.OnComplete(o)
		}
		c.dispatch()
	})
}
