package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/resource"
	"repro/internal/workload"
)

// workloadDef is one row of the workload table. Work is fixed, not time:
// a repeat always offers Jobs jobs, and the number of repeats a run makes
// is a pure function of its flags, so model-time metrics repeat exactly
// for a seed.
type workloadDef struct {
	Name string
	Why  string
	// Jobs is the per-repeat corpus size; Repeats the default repeat count
	// of a full ledger run; RepeatSeconds what one repeat costs on the
	// 2-core reference host including its set-up, used only to turn
	// -seconds into a repeat count.
	Jobs          int
	Repeats       int
	RepeatSeconds float64
	// Exact marks workloads one goroutine drives: their model-time and
	// count metrics are pure functions of the seed.
	Exact bool
	// Tracers is how many span sinks the traced pass needs: one per server.
	Tracers int
	run     func(*runCtx) (*repeatResult, error)
}

var workloads = []*workloadDef{
	{
		Name: "svc_steady", Jobs: 1500, Repeats: 12, RepeatSeconds: 2.7, Exact: true, Tracers: 1, run: runSvcSteady,
		Why: "closed loop on near-empty calendars: strategy/criticalworks DP and placer conflicts dominate, resource and journal idle",
	},
	{
		Name: "svc_backlog", Jobs: 1500, Repeats: 10, RepeatSeconds: 2.4, Exact: true, Tracers: 1, run: runSvcBacklog,
		Why: "open-loop overload on dense calendars: snapshot clones, index rebuilds, reject path and queue shedding dominate",
	},
	{
		Name: "vo_faults", Jobs: 2000, Repeats: 10, RepeatSeconds: 2.8, Exact: true, Tracers: 1, run: runVOFaults,
		Why: "bare VO under outages, task failures and external load: recovery ladder, repair memo, Void/Release beside reads",
	},
	{
		Name: "fed_durable", Jobs: 1000, Repeats: 3, RepeatSeconds: 11, Tracers: fedTracers, run: runFedDurable,
		Why: "router and 2 journaled shards over loopback HTTP at 100 light jobs/s: HTTP, JSON, handoff and fsync dominate; restore reads what the run wrote",
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// repeatsFor turns a -seconds budget into a repeat count. It depends on
// the flag alone, never on how fast this host turned out to be.
func (w *workloadDef) repeatsFor(seconds int) int {
	n := int(float64(seconds) / w.RepeatSeconds)
	if n < 1 {
		n = 1
	}
	return n
}

// The benchmark's grid is fixed infrastructure: the §4 node set generated
// once from this seed, two domains. Only the job corpus follows -seed, so
// runs with different seeds load the same grid and their QoS metrics stay
// comparable.
const (
	envSeed    = 1
	envDomains = 2
)

func newEnv() *resource.Environment {
	return workload.New(workload.Default(envSeed)).Environment(envDomains)
}

// strategyCycle and the priority cycle give every repeat the same mix by
// job index.
var strategyCycle = []string{"S1", "S2", "S3", "MS1"}

const priorityLevels = 3

// warmupJobs is the untimed run every repeat makes on a throwaway server
// before the timed section, so heap growth and lazy initialisation are
// paid in set-up.
const warmupJobs = 200

// corpusSeed derives the corpus seed of one repeat: splitmix64 over the
// run seed and the repeat index, so repeats see different corpora and
// repeat r of seed s is the same corpus in the timed and the traced pass.
func corpusSeed(seed uint64, repeat int) uint64 {
	z := seed + uint64(repeat+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// svcCorpus is the paper's §4 default corpus.
func svcCorpus(seed uint64) workload.Config { return workload.Default(seed) }

// fig4Corpus is the Fig. 4 job-flow corpus (looser deadlines, heavier
// transfers, narrower DAGs) at a Poisson mean of 16 ticks.
func fig4Corpus(seed uint64) workload.Config {
	cfg := workload.Default(seed)
	cfg.DeadlineFactor = 1.8
	cfg.TransferLo, cfg.TransferHi = 2, 8
	cfg.PipelineProb, cfg.MaxPipeline = 0.6, 3
	cfg.MinWidth, cfg.MaxWidth = 2, 3
	cfg.MinLayers, cfg.MaxLayers = 3, 4
	cfg.MeanInterarrival = 16
	return cfg
}

// lightCorpus keeps strategy builds small so the wire and the journal do
// most of fed_durable's work.
func lightCorpus(seed uint64) workload.Config {
	cfg := workload.Default(seed)
	cfg.MinLayers, cfg.MaxLayers = 2, 2
	cfg.MinWidth, cfg.MaxWidth = 1, 2
	return cfg
}

// runCtx is what one repeat gets.
type runCtx struct {
	wl      *workloadDef
	seed    uint64 // corpus seed of this repeat
	jobs    int
	workDir string   // fresh directory on the repo's disk
	tr      *tracing // nil on untraced repeats
}

// repeatResult is one repeat of one workload, as the child prints it.
type repeatResult struct {
	Workload string             `json:"workload"`
	Repeat   int                `json:"repeat"`
	Jobs     int                `json:"jobs"`
	Failed   int                `json:"failed"`
	Failures []string           `json:"failures,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	Samples  map[string]int     `json:"samples,omitempty"`
	WallS    float64            `json:"wallS"`
	Table    []tableRow         `json:"table,omitempty"`
}

// tableRow is one line of the traced layer table.
type tableRow struct {
	Span        string  `json:"span"`
	Count       int     `json:"count"`
	SelfUsPerJ  float64 `json:"selfUsPerJob"`
	TotalUsPerJ float64 `json:"totalUsPerJob"`
	Share       float64 `json:"share"`
}

func newResult(rc *runCtx) *repeatResult {
	return &repeatResult{
		Workload: rc.wl.Name, Jobs: rc.jobs,
		Metrics: map[string]float64{}, Samples: map[string]int{},
	}
}

// fail records one audit violation or unexpected error; the first few
// keep their text.
func (r *repeatResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// setP50 stores the median of samples (already in the metric's unit)
// with its sample count.
func (r *repeatResult) setP50(name string, samples []float64) {
	r.Metrics[name] = median(samples)
	r.Samples[name] = len(samples)
}

// setLatencies reports acknowledgement and decision latencies (ms),
// medians and tails.
func (r *repeatResult) setLatencies(ackMs, decisionMs []float64) {
	r.setP50("driver.ack_p50_ms", ackMs)
	r.setP50("driver.decision_p50_ms", decisionMs)
	r.Metrics["driver.ack_p99_ms"] = tail(ackMs)
	r.Metrics["driver.decision_p99_ms"] = tail(decisionMs)
}

// meter measures the timed section: host wall, process CPU, bytes
// allocated and GC CPU.
type meter struct {
	t0    time.Time
	cpu0  float64
	gc0   float64
	alloc uint64
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func startMeter() *meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &meter{cpu0: processCPU(), gc0: gcCPU(), alloc: ms.TotalAlloc, t0: time.Now()}
}

// stop fills the host-time metrics every workload reports.
func (m *meter) stop(r *repeatResult) {
	wall := time.Since(m.t0).Seconds()
	cpu := processCPU() - m.cpu0
	gc := gcCPU() - m.gc0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	jobs := float64(r.Jobs)
	r.WallS = wall
	r.Metrics["driver.decisions_per_s"] = jobs / wall
	r.Metrics["driver.cpu_ms_per_job"] = cpu * 1e3 / jobs
	r.Metrics["alloc_kb_per_job"] = float64(ms.TotalAlloc-m.alloc) / 1024 / jobs
	if cpu > 0 {
		r.Metrics["driver.gc_cpu_share"] = gc / cpu
	}
}

// peakRSSMiB is this process's high-water resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// benchDir finds the benchmark's own directory from wherever the binary
// was started (the repo root under `go run`, the package directory under
// `go test`), so work files land on the repo's disk: a journal on a tmpfs
// would make fsync measure nothing.
func benchDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Join(dir, "benchmark"), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
