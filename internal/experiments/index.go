package experiments

// Experiment is one row of gridsim's index: the -exp id, what the
// experiment regenerates, and its run from the command line's settings.
type Experiment struct {
	ID, About string
	// Run takes the seed, the worker count and the registry from cfg and
	// caps cfg.Jobs at the experiment's own scale; the availability sweep
	// also takes cfg's fault settings.
	Run func(cfg AvailabilityConfig) (*Report, error)
}

// Experiments is gridsim's index, in the order `-exp all` runs it.
var Experiments = []Experiment{
	{"fig2", "E1: the §3 worked example — critical works, distributions, collision", func(c AvailabilityConfig) (*Report, error) {
		return Fig2Telemetry(c.Telemetry)
	}},
	{"fig3a", "E2: % admissible application-level schedules per strategy", func(c AvailabilityConfig) (*Report, error) {
		return Fig3a(fig3Settings(c, c.Jobs))
	}},
	{"fig3b", "E3: collision split across fast/slow nodes", func(c AvailabilityConfig) (*Report, error) {
		return Fig3b(fig3Settings(c, c.Jobs))
	}},
	{"fig4a", "E4: node load level by performance group under job flows", func(c AvailabilityConfig) (*Report, error) {
		return Fig4a(fig4Settings(c))
	}},
	{"fig4b", "E5: relative job cost and task execution time", func(c AvailabilityConfig) (*Report, error) {
		return Fig4b(fig4Settings(c))
	}},
	{"fig4c", "E6: strategy time-to-live and start deviation", func(c AvailabilityConfig) (*Report, error) {
		return Fig4c(fig4Settings(c))
	}},
	{"policies", "E7: local batch policies (§5 claims)", func(c AvailabilityConfig) (*Report, error) {
		return Policies(PoliciesConfig{Seed: c.Seed, Jobs: c.Jobs})
	}},
	{"ablation-collision", "E8: economic reallocation vs pinned-node delay", func(c AvailabilityConfig) (*Report, error) {
		return AblationCollision(fig3Settings(c, min(c.Jobs, ablationMaxJobs)))
	}},
	{"ablation-levels", "E9: S1 vs MS1 generation expense and coverage", func(c AvailabilityConfig) (*Report, error) {
		return AblationLevels(fig3Settings(c, min(c.Jobs, ablationMaxJobs)))
	}},
	{"comparison", "E10: critical works vs min-min/max-min/sufferage/OLB", func(c AvailabilityConfig) (*Report, error) {
		return Comparison(fig3Settings(c, min(c.Jobs, ablationMaxJobs)))
	}},
	{"local-passing", "E11: advance reservations vs queued local passing", func(c AvailabilityConfig) (*Report, error) {
		return LocalPassing(fig4Settings(c))
	}},
	{"availability", "E12: QoS-miss rate and TTL vs node availability (fault injection)", func(c AvailabilityConfig) (*Report, error) {
		c.Jobs = min(c.Jobs, availabilityMaxJobs)
		return Availability(c)
	}},
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

func fig3Settings(c AvailabilityConfig, jobs int) Fig3Config {
	return Fig3Config{Seed: c.Seed, Jobs: jobs, Workers: c.Workers, Telemetry: c.Telemetry}
}

func fig4Settings(c AvailabilityConfig) Fig4Config {
	return Fig4Config{Seed: c.Seed, Jobs: min(c.Jobs, fig4MaxJobs), Workers: c.Workers, Telemetry: c.Telemetry}
}
