// Package workload generates the synthetic environments and job corpora of
// the paper's §4 experiments: 20–30 heterogeneous nodes in three relative
// performance bands, and randomized compound jobs whose task estimates,
// computation volumes and transfer parameters are uniformly distributed
// with a 2–3× spread, each with a fixed completion time (deadline).
package workload

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// The §4 setup's fixed parameters: the node count, the cross-edge density
// and the uniform task and transfer distributions, each Lo–Hi range with the
// paper's "difference equal to 2...3" between task parameters.
const (
	minNodes, maxNodes           = 20, 30 // §4: varied from 20 to 30
	crossEdgeProb                = 0.35   // extra edges between adjacent layers
	baseTimeLo, baseTimeHi       = 2, 6   // 3× spread
	volumeLo, volumeHi           = 10, 30
	transferVolLo, transferVolHi = 5, 15
)

// Config is what a corpus may set apart from §4's: its job shape, transfer
// times, deadlines and arrival rate.
type Config struct {
	Seed uint64

	// Job shape: layered DAGs whose width matches a task parallelism
	// degree conformable with the node count.
	MinLayers, MaxLayers int
	MinWidth, MaxWidth   int
	// PipelineProb is the chance each layer element extends into a linear
	// run of up to MaxPipeline extra tasks — the "computational
	// granularity" structure that coarse-grain (S3) strategies cluster.
	PipelineProb float64
	MaxPipeline  int

	// TransferLo/Hi bound the uniform transfer base time.
	TransferLo, TransferHi simtime.Time

	// DeadlineFactor stretches the best-case critical path into the job's
	// fixed completion time: deadline = release + factor × criticalPath.
	DeadlineFactor float64

	// MeanInterarrival is the mean of the exponential job inter-arrival
	// time used by Flow.
	MeanInterarrival float64
}

// Default returns the §4 configuration.
func Default(seed uint64) Config {
	return Config{
		Seed:             seed,
		MinLayers:        3,
		MaxLayers:        5,
		MinWidth:         2,
		MaxWidth:         4,
		PipelineProb:     0.5,
		MaxPipeline:      2,
		TransferLo:       1,
		TransferHi:       3,
		DeadlineFactor:   1.6,
		MeanInterarrival: 12,
	}
}

// Generator produces environments, jobs and flows deterministically from
// the config seed. Job(i) and Flow(s, …) are pure functions of (seed, i)
// and (seed, s): repeated calls return identical results.
type Generator struct {
	cfg  Config
	env  *rng.Source
	base uint64
}

// New creates a generator for the config.
func New(cfg Config) *Generator {
	root := rng.New(cfg.Seed)
	env := root.Split(1)
	return &Generator{
		cfg:  cfg,
		env:  env,
		base: rng.New(cfg.Seed).Split(2).Uint64(),
	}
}

// jobRNG derives the idx-th job's private stream without mutating shared
// state.
func (g *Generator) jobRNG(idx uint64) *rng.Source {
	return rng.New(g.base ^ (idx+1)*0x9e3779b97f4a7c15)
}

// Environment builds the §4 node set: a node count in [minNodes, maxNodes]
// split into three groups — "fast" with relative performance 0.66–1.0,
// medium 0.34–0.66, and "slow" 0.25–0.34 (the paper pins the slow group at
// the 0.33 floor; we widen it slightly downward so all four estimation
// tiers of §3's table are populated). Nodes are spread round-robin across
// `domains` job-manager domains.
func (g *Generator) Environment(domains int) *resource.Environment {
	if domains < 1 {
		domains = 1
	}
	n := g.env.IntBetween(minNodes, maxNodes)
	// The first four nodes pin one representative per estimation tier so
	// every strategy level always has at least one candidate; the rest are
	// drawn uniformly from their group's band.
	anchors := []float64{1.0, 0.5, 0.33, 0.27}
	nodes := make([]*resource.Node, n)
	for i := 0; i < n; i++ {
		var perf float64
		if i < len(anchors) {
			perf = anchors[i]
		} else {
			switch i % 3 {
			case 0:
				perf = g.env.Float64Between(0.67, 1.0)
			case 1:
				perf = g.env.Float64Between(0.35, 0.66)
			default:
				perf = g.env.Float64Between(0.25, 0.34)
			}
		}
		// Group domains in contiguous blocks of three so every domain gets
		// a mix of the three performance bands (the band cycles with i%3;
		// using i%domains here would segregate domains by speed).
		dom := fmt.Sprintf("domain-%d", (i/3)%domains)
		nodes[i] = resource.NewNode(resource.NodeID(i), fmt.Sprintf("node-%02d", i), perf, dom)
	}
	return resource.NewEnvironment(nodes)
}

// Job generates the idx-th random compound job: a layered DAG where every
// non-source task has at least one predecessor in the previous layer and
// every non-sink at least one successor, so the graph is a single weakly
// connected component with full parallel structure.
func (g *Generator) Job(idx int) *dag.Job { return g.job(idx, 0) }

// job is Job with the deadline moved `at` later: a flow's job is anchored
// at its arrival.
//
// The job is drawn by task index — task P_k is ID k-1, transfer D_k the
// k-th edge drawn — into pooled scratch, and built once the draws are done,
// with the names P1.. and D1.. read from the scratch's name tables.
func (g *Generator) job(idx int, at simtime.Time) *dag.Job {
	cfg := &g.cfg
	r := g.jobRNG(uint64(idx))
	s := scratch.Get().(*jobScratch)
	defer scratch.Put(s)
	s.tasks, s.elems, s.rows, s.pipe, s.edges = s.tasks[:0], s.elems[:0], s.rows[:0], s.pipe[:0], s.edges[:0]

	newTask := func() dag.TaskID {
		s.tasks = append(s.tasks, dag.Task{
			BaseTime: simtime.Time(r.Int64Between(baseTimeLo, baseTimeHi)),
			Volume:   r.Int64Between(volumeLo, volumeHi),
		})
		return dag.TaskID(len(s.tasks) - 1)
	}
	// Each layer element is a small pipeline: a head task optionally
	// extended by a linear run. Incoming edges attach to the head,
	// outgoing edges leave from the tail — the linear runs are what
	// coarse-grain (S3) clustering merges into macro tasks.
	layers := r.IntBetween(cfg.MinLayers, cfg.MaxLayers)
	for l := 0; l < layers; l++ {
		s.rows = append(s.rows, len(s.elems))
		width := 1
		if l > 0 && l < layers-1 {
			width = r.IntBetween(cfg.MinWidth, cfg.MaxWidth)
		}
		for w := 0; w < width; w++ {
			head := newTask()
			tail := head
			if cfg.MaxPipeline > 0 && r.Bool(cfg.PipelineProb) {
				for k := r.IntBetween(1, cfg.MaxPipeline); k > 0; k-- {
					next := newTask()
					s.pipe = append(s.pipe, dag.Edge{From: tail, To: next})
					tail = next
				}
			}
			s.elems = append(s.elems, element{head: head, tail: tail})
		}
	}
	s.rows = append(s.rows, len(s.elems))

	n := len(s.tasks)
	s.adj = append(s.adj[:0], make([]uint64, (n*n+63)/64)...) // bit from*n+to: from→to is an edge
	s.outDeg = append(s.outDeg[:0], make([]int32, n)...)
	addEdge := func(from, to dag.TaskID) {
		bit := int(from)*n + int(to)
		if s.adj[bit/64]&(1<<(bit%64)) != 0 {
			return
		}
		s.adj[bit/64] |= 1 << (bit % 64)
		s.outDeg[from]++
		s.edges = append(s.edges, dag.Edge{From: from, To: to,
			BaseTime: simtime.Time(r.Int64Between(int64(cfg.TransferLo), int64(cfg.TransferHi))),
			Volume:   r.Int64Between(transferVolLo, transferVolHi),
		})
	}
	for _, e := range s.pipe {
		addEdge(e.From, e.To)
	}
	for l := 1; l < layers; l++ {
		prev, cur := s.elems[s.rows[l-1]:s.rows[l]], s.elems[s.rows[l]:s.rows[l+1]]
		// Guarantee connectivity both ways: heads consume, tails produce.
		for _, to := range cur {
			addEdge(prev[r.Intn(len(prev))].tail, to.head)
		}
		for _, from := range prev {
			if s.outDeg[from.tail] == 0 {
				addEdge(from.tail, cur[r.Intn(len(cur))].head)
			}
		}
		// Extra cross edges for data-dependency richness.
		for _, from := range prev {
			for _, to := range cur {
				if r.Bool(crossEdgeProb) {
					addEdge(from.tail, to.head)
				}
			}
		}
	}

	b := dag.NewBuilder(fmt.Sprintf("job-%05d", idx)).Grow(n, len(s.edges))
	for i, name := range s.names(&s.pNames, 'P', n) {
		b.Task(name, s.tasks[i].BaseTime, s.tasks[i].Volume)
	}
	for i, name := range s.names(&s.dNames, 'D', len(s.edges)) {
		e := s.edges[i]
		b.Link(name, e.From, e.To, e.BaseTime, e.Volume)
	}
	job := b.MustBuild()
	// Fixed completion time: factor × best-case critical path (transfers
	// included), at least 1 tick of slack.
	cp := job.CriticalPathLength(dag.WeightFunc{})
	deadline := simtime.Time(cfg.DeadlineFactor*float64(cp) + 0.5)
	if deadline <= cp {
		deadline = cp + 1
	}
	// Nothing else holds the job yet, so its deadline is set in place.
	job.Deadline = at + deadline
	return job
}

// element is one layer element: a pipeline from head to tail.
type element struct{ head, tail dag.TaskID }

// jobScratch is the working memory of one job call, kept between calls. Its
// tasks and edges hold the draws, unnamed.
type jobScratch struct {
	tasks  []dag.Task // P1, P2, …
	elems  []element  // every layer's elements, layer after layer
	rows   []int      // layer l's elements are elems[rows[l]:rows[l+1]]
	pipe   []dag.Edge // the pipelines' edges, weights not yet drawn
	edges  []dag.Edge // D1, D2, …
	adj    []uint64   // the edges drawn so far, as an n×n bitmap
	outDeg []int32    // every task's out-degree so far
	buf    []byte
	// pNames and dNames are the name tables P1, P2, … and D1, D2, … as far
	// as any job built in this scratch has needed them.
	pNames, dNames []string
}

var scratch = sync.Pool{New: func() any { return new(jobScratch) }}

// names returns the first n names of the table prefix1, prefix2, …. Only
// when n outgrows the table is it cut anew, from one string.
func (s *jobScratch) names(table *[]string, prefix byte, n int) []string {
	if n <= len(*table) {
		return (*table)[:n]
	}
	s.buf = s.buf[:0]
	for i := 1; i <= n; i++ {
		s.buf = strconv.AppendInt(append(s.buf, prefix), int64(i), 10)
	}
	all := string(s.buf)
	t := (*table)[:0]
	for len(all) > 0 {
		end := strings.IndexByte(all[1:], prefix) + 1
		if end == 0 {
			end = len(all)
		}
		t = append(t, all[:end])
		all = all[end:]
	}
	*table = t
	return t
}

// Arrival is one job of a flow with its submission time.
type Arrival struct {
	Job *dag.Job
	At  simtime.Time
}

// Flow generates n jobs with exponential inter-arrival times starting at
// `start`. The stream index decorrelates parallel flows. Each job's fixed
// completion time is re-anchored at its arrival: deadline = arrival +
// DeadlineFactor × critical path. Flow is the Poisson case of FlowWith
// (byte-identical, guarded by TestFlowWithPoissonMatchesFlow).
func (g *Generator) Flow(stream, n int, start simtime.Time) []Arrival {
	return g.FlowWith(ArrivalSpec{Kind: ProcPoisson}, stream, n, start)
}
