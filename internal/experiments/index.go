package experiments

import (
	"io"
	"sync"

	"repro/internal/strategy"
	"repro/internal/telemetry"
)

// Config is the one set of settings every experiment runs from: gridsim
// builds it from its flags and hands it to each row of Experiments it runs.
// An experiment reads the fields it needs and ignores the rest.
type Config struct {
	Seed uint64
	// Jobs is the corpus size, which each experiment caps at its own scale;
	// the paper's Fig. 3 used "more than 12000".
	Jobs int
	// Workers bounds the pool fanning independent units (a corpus's jobs, a
	// sweep's VO cells) across goroutines; ≤ 0 means one worker per CPU.
	// Every worker count produces byte-identical reports and traces. A VO
	// cell's flow builds its jobs on one worker per CPU whatever Workers is
	// (workload.Generator.FlowWith).
	Workers int
	// Trace, when set, receives every VO cell's JSONL trace. Cells write
	// into private buffers while running; the buffers are flushed to Trace
	// in cell order after the pool drains.
	Trace io.Writer
	// Telemetry, when non-nil, receives the runtime metrics of every build
	// and VO run. Observe-only: reports and traces stay byte-identical.
	Telemetry *telemetry.Registry

	// The availability sweep (E12). Levels are the steady-state node
	// availabilities to sweep, from 1.0 (faults off) downward; MTTR is the
	// mean outage duration, and each level's MTBF is MTTR·a/(1−a);
	// TaskFailRate and MaxRetries tune the mid-run failure ladder.
	Levels       []float64
	MTTR         float64
	TaskFailRate float64
	MaxRetries   int

	// fig3 and fig4bc, made by DefaultConfig and shared by every copy of
	// the Config, keep the Fig. 3 corpus pass and the Fig. 4(b,c) cells
	// that the first of the two rows reading them ran, so that the other
	// reads them too (memo.get).
	fig3   *memo[*fig3Run]
	fig4bc *memo[map[strategy.Type]*fig4Outcome]
}

// memo keeps the result of a run that two rows read, with what the run read
// of the Config: the seed, the corpus size and the registry.
type memo[T any] struct {
	mu   sync.Mutex
	done bool
	seed uint64
	jobs int
	reg  *telemetry.Registry
	val  T
}

// get returns what run made from an earlier Config of the same seed, corpus
// size and registry, or runs it and keeps the result. A nil memo (in a
// Config not made by DefaultConfig) runs it on every call.
func (m *memo[T]) get(cfg Config, run func(Config) (T, error)) (T, error) {
	if m == nil {
		return run(cfg)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done && m.seed == cfg.Seed && m.jobs == cfg.Jobs && m.reg == cfg.Telemetry {
		return m.val, nil
	}
	val, err := run(cfg)
	if err != nil {
		return val, err
	}
	m.done, m.seed, m.jobs, m.reg, m.val = true, cfg.Seed, cfg.Jobs, cfg.Telemetry, val
	return val, nil
}

// DefaultConfig returns the calibrated settings for seed and a corpus of
// jobs, one worker per CPU.
func DefaultConfig(seed uint64, jobs int) Config {
	return Config{
		Seed:         seed,
		Jobs:         jobs,
		Levels:       []float64{1.0, 0.98, 0.95, 0.9, 0.8},
		MTTR:         20,
		TaskFailRate: 0.05,
		MaxRetries:   2,
		fig3:         new(memo[*fig3Run]),
		fig4bc:       new(memo[map[strategy.Type]*fig4Outcome]),
	}
}

// Experiment is one row of gridsim's index: the -exp id, what the
// experiment regenerates, and its run.
type Experiment struct {
	ID, About string
	Run       func(Config) (*Report, error)
}

// Experiments is gridsim's index, in the order `-exp all` runs it.
var Experiments = []Experiment{
	{"fig2", "E1: the §3 worked example — critical works, distributions, collision", fig2},
	{"fig3a", "E2: % admissible application-level schedules per strategy", fig3a},
	{"fig3b", "E3: collision split across fast/slow nodes", fig3b},
	{"fig4a", "E4: node load level by performance group under job flows", fig4a},
	{"fig4b", "E5: relative job cost and task execution time", fig4b},
	{"fig4c", "E6: strategy time-to-live and start deviation", fig4c},
	{"policies", "E7: local batch policies (§5 claims)", policies},
	{"ablation-collision", "E8: economic reallocation vs pinned-node delay", ablationCollision},
	{"ablation-levels", "E9: S1 vs MS1 generation expense and coverage", ablationLevels},
	{"comparison", "E10: critical works vs min-min/max-min/sufferage/OLB", comparison},
	{"local-passing", "E11: advance reservations vs queued local passing", localPassing},
	{"availability", "E12: QoS-miss rate and TTL vs node availability (fault injection)", availability},
}

// Each experiment caps the corpus at its own scale: a VO run is an order of
// magnitude heavier per job than the application-level corpus, and the
// availability sweep runs one VO per (strategy, availability) pair, an order
// of magnitude more again.
const (
	fig4MaxJobs         = 400
	ablationMaxJobs     = 2000
	availabilityMaxJobs = 200
)
