package criticalworks

// Incremental strategy repair (DESIGN.md §14). A Build run with
// Options.CaptureMemo leaves a BuildMemo on its Schedule: the effective
// options it ran under, the calendar generation each candidate's book
// carried when it started (its read-set), and the margin-1 construction
// trace chain by chain. TryRepair uses the memo to answer a *later* build
// request over a shrunken candidate set without re-running the whole
// multiphase procedure:
//
//   - full replay: when no memoized placement touches a removed node, the
//     memoized schedule IS the schedule the full build would produce, so
//     it is returned without reading a calendar;
//   - splice: otherwise the untouched prefix of critical works is
//     re-applied verbatim (reservations, collisions, catalog commits) and
//     the DP resumes from the first touched chain;
//   - stale: whenever the memo cannot *prove* equivalence — any key
//     mismatch, a changed generation, a new candidate, an infeasible
//     resume — the caller must fall back to the full Build.
//
// Why a replayed/spliced result is byte-identical to the full rebuild it
// replaces (the subset-optimality argument):
//
// The chain sequence is candidate-independent — LongestChain weighs tasks
// by the estimate table and edges by base transfer time — so a rebuild
// walks the same critical works in the same order while its placements
// match the memo's. Within one chain, removing candidate columns from the
// DP can only shrink each cell's option set, so every cell's value weakly
// worsens; a cell on the memoized winning path is computed from on-path
// predecessors only, hence unchanged by induction. The argmin (both the
// per-cell transition and the terminal selection) replaces its incumbent
// only on a strict improvement, so the original winner — strictly better
// than the running best over earlier columns, never beaten by later ones
// — still wins against weakly-worsened rivals whose relative order an
// order-preserving subsequence keeps intact. Therefore, as long as a
// chain's ideal and actual placements avoid every removed node, the
// rebuild reproduces them exactly, along with the collisions (functions
// of the ideal slots and the — identical — calendar view) and the catalog
// commits (functions of the placements). The first chain that does touch
// a removed node is where the proof stops and the live DP takes over.
//
// Evaluations are the one deliberate divergence: a memoized chain's probe
// count includes the removed columns' probes, which the counterfactual
// rebuild would not perform. The count is kept as recorded (it measures
// work the method *did* spend building the plan) and never reaches any
// report, trace or wire format on the fallback path that uses repair.

import (
	"reflect"

	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/economy"
	"repro/internal/estimate"
	"repro/internal/resource"
	"repro/internal/simtime"
)

// ChainMemo is one critical work's slice of the construction trace: the
// chain's tasks in placement order, the actual placements reserved, every
// node either DP phase placed on (the repair-safety frontier), and the
// collisions and probe count the chain contributed.
type ChainMemo struct {
	Tasks   []dag.TaskID
	Actual  []Placement
	Touched []resource.NodeID
	Colls   []Collision
	Evals   int64
}

// BuildMemo records one memoized margin-1 build: enough to prove a later
// build over a subsequence of its candidates would reproduce it, and to
// resume the DP from the first chain the shrinkage touches.
type BuildMemo struct {
	// The effective (normalized) option key of the memoized build.
	JobName   string
	Release   simtime.Time
	Deadline  simtime.Time
	Horizon   simtime.Time
	Objective Objective

	// Candidates is the memoized candidate order; Reads the generation
	// each candidate's reservation book carried when the build started.
	Candidates []resource.NodeID
	Reads      map[resource.NodeID]uint64

	// Chains is the margin-1 construction trace, one entry per critical
	// work in placement order; Schedule the build's (complete) result.
	Chains   []ChainMemo
	Schedule *Schedule

	// Context identity beyond the plain key: the estimate table (nil for
	// one derived from the job — those are deterministic and the memo must
	// not keep a generation's table alive; a caller-assembled table must be
	// pointer-equal), the pricing model, and the starting catalog (policy,
	// storage anchor, and emptiness — two fresh catalogs of the same shape
	// price every transfer identically).
	table        *estimate.Table
	pricing      economy.Pricing
	policy       data.Policy
	storage      resource.NodeID
	catalogEmpty bool
}

// newMemo starts a memo from a build's normalized options (table is
// normalize's memoTable) and the read-set captured from its input calendar
// view.
func newMemo(opt Options, table *estimate.Table, reads map[resource.NodeID]uint64) *BuildMemo {
	return &BuildMemo{
		JobName:      opt.JobName,
		Release:      opt.Release,
		Deadline:     opt.Deadline,
		Horizon:      opt.Horizon,
		Objective:    opt.Objective,
		Candidates:   append([]resource.NodeID(nil), opt.Candidates...),
		Reads:        reads,
		table:        table,
		pricing:      opt.Pricing,
		policy:       opt.Catalog.Policy(),
		storage:      opt.Catalog.Storage(),
		catalogEmpty: opt.Catalog.Empty(),
	}
}

// RepairOutcome classifies a TryRepair attempt.
type RepairOutcome int

const (
	// RepairStale means the memo could not prove equivalence; the caller
	// must run the full Build.
	RepairStale RepairOutcome = iota
	// RepairReplayed means the memoized schedule was returned whole: no
	// placement touched a removed candidate, no calendar was read.
	RepairReplayed
	// RepairSpliced means the untouched prefix of critical works was
	// replayed and the DP re-solved the rest against the current books.
	RepairSpliced
)

// String names the outcome for telemetry and tests.
func (o RepairOutcome) String() string {
	switch o {
	case RepairReplayed:
		return "replayed"
	case RepairSpliced:
		return "spliced"
	default:
		return "stale"
	}
}

// usable validates the memo against a prospective build's normalized
// options and live calendar generations, returning the splice point: the
// index of the first memoized chain whose placements touch a removed
// candidate. splice == len(m.Chains) means the whole schedule replays.
func (m *BuildMemo) usable(job *dag.Job, opt Options, table *estimate.Table, gens func(resource.NodeID) uint64) (int, bool) {
	if m == nil || m.Schedule == nil || m.Schedule.Partial || m.Schedule.Job != job {
		return 0, false
	}
	if opt.Mode != ResolveReallocate {
		return 0, false
	}
	if opt.JobName != m.JobName || opt.Release != m.Release || opt.Deadline != m.Deadline ||
		opt.Horizon != m.Horizon || opt.Objective != m.Objective {
		return 0, false
	}
	if table != m.table {
		return 0, false
	}
	if !reflect.DeepEqual(opt.Pricing, m.pricing) {
		return 0, false
	}
	if opt.Catalog.Policy() != m.policy || opt.Catalog.Storage() != m.storage ||
		!opt.Catalog.Empty() || !m.catalogEmpty {
		return 0, false
	}
	// The new candidates must be an order-preserving subsequence of the
	// memoized ones (the subset-optimality argument needs the surviving
	// columns in their original relative order), and every survivor's
	// book generation must still match the memoized read.
	removed := make(map[resource.NodeID]bool)
	j := 0
	for _, id := range m.Candidates {
		if j < len(opt.Candidates) && opt.Candidates[j] == id {
			g, ok := m.Reads[id]
			if !ok || gens(id) != g {
				return 0, false
			}
			j++
			continue
		}
		removed[id] = true
	}
	if j != len(opt.Candidates) {
		return 0, false // a candidate the memoized build never saw
	}
	// Defensive: the trace must cover the whole job, or the resume loop
	// would re-place memoized tasks.
	total := 0
	for _, cm := range m.Chains {
		total += len(cm.Tasks)
	}
	if total != job.NumTasks() {
		return 0, false
	}
	for i, cm := range m.Chains {
		for _, n := range cm.Touched {
			if removed[n] {
				return i, true
			}
		}
	}
	return len(m.Chains), true
}

// replay re-applies one memoized chain to the builder exactly as
// placeChain recorded it: probe count, collisions, reservations,
// placements and catalog commits, in placeChain's order.
func (b *builder) replay(cm ChainMemo) error {
	b.evals += cm.Evals
	b.colls = append(b.colls, cm.Colls...)
	for _, p := range cm.Actual {
		if err := b.reserve(p); err != nil {
			return err // generations matched, so the slot must be free
		}
	}
	b.commitPlaced()
	return nil
}

// TryRepair attempts to satisfy a build request from a prior build's
// memo. gens resolves a node's live calendar generation (the memo's
// read-set is validated against it); snap supplies a view of the current
// books (under Build's contract: read, never written) and is only invoked
// when a splice actually needs calendars — a full replay touches none.
// TryRepair writes nothing but opt.Catalog, and that only on success. On
// RepairStale the returned schedule is nil: the caller runs the full Build,
// whose result then stands on its own. On success the schedule is exactly —
// placement for placement, collision for collision, cost for cost — what
// Build(env, snap(), job, opt) would have returned, and opt.Catalog (when
// non-nil) carries the adopted replica state.
func TryRepair(env *resource.Environment, job *dag.Job, opt Options, memo *BuildMemo, gens func(resource.NodeID) uint64, snap func() Calendars) (*Schedule, RepairOutcome) {
	nopt, memoTable, err := normalize(env, job, opt)
	if err != nil {
		return nil, RepairStale
	}
	at, ok := memo.usable(job, nopt, memoTable, gens)
	if !ok || at == 0 {
		// at == 0 would resume from scratch — no cheaper than Build, and
		// Build's margin ladder handles the infeasible case properly.
		return nil, RepairStale
	}

	if at == len(memo.Chains) {
		// Full hit: hand back the memoized schedule (shallow copy; its
		// maps and slices are never mutated after construction). The memo
		// rides along — it proves the same facts about this schedule.
		// The caller's catalog still gets the replica state Build would
		// have adopted: the final state is the idempotent union of one
		// commit per edge, which a complete schedule covers entirely.
		for _, e := range job.Edges() {
			from, okF := memo.Schedule.Placements[e.From]
			to, okT := memo.Schedule.Placements[e.To]
			if okF && okT {
				nopt.Catalog.Commit(nopt.JobName, job.Task(e.From).Name, from.Node, to.Node)
			}
		}
		cp := *memo.Schedule
		return &cp, RepairReplayed
	}

	// Splice: replay the untouched prefix over the current books, then let
	// the ordinary margin-1 machinery place the remaining critical works.
	cals := snap()
	if cals == nil {
		return nil, RepairStale
	}
	b := newBuilder(env, cals, nopt, 1, newScratch(job))
	b.capture, b.span = nopt.CaptureMemo, nopt.ParentSpan
	b.computeBounds(nopt.Table, 1)
	for _, cm := range memo.Chains[:at] {
		if err := b.replay(cm); err != nil {
			return nil, RepairStale
		}
	}
	sched, err := b.placeRest()
	if err != nil {
		// Margin 1 ran dry (or the context fired): the full Build's retry
		// ladder is the correct continuation, not a patch.
		return nil, RepairStale
	}
	if b.capture {
		// Captured before the catalog adoption below: the memo must record
		// the caller's catalog as Build saw it (empty), not the adopted
		// replica state. The spliced build read the same generations the
		// memo proved live, so its memo inherits them, restricted to the
		// survivors.
		reads := make(map[resource.NodeID]uint64, len(nopt.Candidates))
		for _, id := range nopt.Candidates {
			reads[id] = memo.Reads[id]
		}
		m2 := newMemo(nopt, memoTable, reads)
		m2.Chains = append(append([]ChainMemo(nil), memo.Chains[:at]...), b.chains...)
		m2.Schedule = sched
		sched.memo = m2
	}
	b.adopt(nopt.Catalog)
	return sched, RepairSpliced
}
