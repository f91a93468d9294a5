// Package scalereport defines the BENCH_scale.json artifact emitted by
// cmd/gridload and the regression comparisons cmd/scalecheck applies to
// it in CI.
//
// The report is split into two sections with different comparison rules:
//
//   - Deterministic holds everything that is a pure function of the run's
//     seed and configuration on the in-process path (admission counts,
//     terminal states, model-time goodput). Two runs with the same seed
//     must agree byte-for-byte here, and a baseline diff is an exact
//     diff: any change is a behavioral regression (or an intentional
//     scheduler change that must re-commit the baseline).
//   - Wall holds wall-clock measurements (latency percentiles, jobs per
//     second). These vary run to run and machine to machine, so the gate
//     compares them against the baseline with per-metric tolerances.
package scalereport

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Schema identifies the artifact version.
const Schema = "gridload/v1"

// Report is the whole BENCH_scale.json document.
type Report struct {
	Schema        string        `json:"schema"`
	Config        RunConfig     `json:"config"`
	Deterministic Deterministic `json:"deterministic"`
	Wall          WallClock     `json:"wallClock"`
}

// RunConfig echoes the generator configuration that produced the run, so
// a baseline diff against a differently-shaped run fails loudly instead
// of comparing apples to oranges.
type RunConfig struct {
	Mode             string  `json:"mode"` // "inprocess" or "http"
	Arrival          string  `json:"arrival"`
	Strategy         string  `json:"strategy"`
	Seed             uint64  `json:"seed"`
	Jobs             int     `json:"jobs"`
	QueueCap         int     `json:"queueCap"`
	Domains          int     `json:"domains"`
	Burst            int     `json:"burst"`
	Proc             int     `json:"proc"`
	Priorities       int     `json:"priorities"`
	MeanInterarrival float64 `json:"meanInterarrival"`
	// Placers is the batched-placement width (0/1 = one job per
	// scheduling step). Absent in pre-placer baselines,
	// which unmarshal to 0 and stay comparable.
	Placers int `json:"placers,omitempty"`
}

// Deterministic is the seed-reproducible section (see the package doc).
type Deterministic struct {
	Submitted  uint64 `json:"submitted"`
	Accepted   uint64 `json:"accepted"`
	Completed  uint64 `json:"completed"`
	Rejected   uint64 `json:"rejected"`
	Shed       uint64 `json:"shed"`
	Infeasible uint64 `json:"infeasible"`
	Overloaded uint64 `json:"overloaded"`
	Drained    uint64 `json:"drained"`

	// Client-observed admission outcomes (from SubmitError codes in
	// process, HTTP statuses over the wire).
	ClientAccepted int `json:"clientAccepted"`
	Client429      int `json:"client429"`
	Client503      int `json:"client503"`
	// RetryAfterViolations counts backpressure rejections whose retry
	// hint was missing or non-positive; the contract keeps this at 0.
	RetryAfterViolations int `json:"retryAfterViolations"`

	// TerminalByState tallies the terminal-state stream.
	TerminalByState map[string]uint64 `json:"terminalByState"`

	QueueHighWater int   `json:"queueHighWater"`
	EngineTicks    int64 `json:"engineTicks"`
	// GoodputPerKTicks is completed jobs per 1000 model ticks — the
	// scheduler's deterministic goodput, independent of host speed.
	GoodputPerKTicks float64 `json:"goodputPerKTicks"`

	// PlacerCommits counts the levels same-tick batch members booked (zero
	// with placers ≤ 1, and absent from pre-placer baselines). The
	// placement order is deterministic, so it is seed-reproducible like
	// everything else in this section.
	PlacerCommits uint64 `json:"placerCommits,omitempty"`
}

// WallClock is the host-dependent section, gated with tolerances.
type WallClock struct {
	ElapsedSeconds    float64 `json:"elapsedSeconds"`
	GoodputJobsPerSec float64 `json:"goodputJobsPerSec"`

	// Admission latency (time in the queue) percentiles in seconds,
	// estimated from the service histogram's fixed buckets.
	AdmissionP50  float64 `json:"admissionP50"`
	AdmissionP95  float64 `json:"admissionP95"`
	AdmissionP99  float64 `json:"admissionP99"`
	AdmissionP999 float64 `json:"admissionP999"`

	// Client-observed end-to-end submit latency percentiles in seconds
	// (exact, from the raw sample set).
	ClientP50  float64 `json:"clientP50"`
	ClientP95  float64 `json:"clientP95"`
	ClientP99  float64 `json:"clientP99"`
	ClientP999 float64 `json:"clientP999"`

	// Backoff behavior when honoring Retry-After (HTTP mode).
	BackoffRetries int     `json:"backoffRetries"`
	BackoffSeconds float64 `json:"backoffSeconds"`
}

// Load reads and validates one report.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// Write marshals the report to path (indented, trailing newline).
func (r *Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CompareDeterministic diffs the seed-reproducible sections of two
// reports exactly — config shape first, then every deterministic field —
// and returns one message per mismatch. An empty slice means identical.
func CompareDeterministic(cur, base *Report) []string {
	var diffs []string
	add := func(format string, args ...any) { diffs = append(diffs, fmt.Sprintf(format, args...)) }
	if cur.Config != base.Config {
		add("config differs: %+v vs %+v — regenerate the baseline with matching flags", cur.Config, base.Config)
		return diffs
	}
	a, b := cur.Deterministic, base.Deterministic
	cmp := func(name string, got, want any) {
		if got != want {
			add("%s: %v, baseline %v", name, got, want)
		}
	}
	cmp("submitted", a.Submitted, b.Submitted)
	cmp("accepted", a.Accepted, b.Accepted)
	cmp("completed", a.Completed, b.Completed)
	cmp("rejected", a.Rejected, b.Rejected)
	cmp("shed", a.Shed, b.Shed)
	cmp("infeasible", a.Infeasible, b.Infeasible)
	cmp("overloaded", a.Overloaded, b.Overloaded)
	cmp("drained", a.Drained, b.Drained)
	cmp("clientAccepted", a.ClientAccepted, b.ClientAccepted)
	cmp("client429", a.Client429, b.Client429)
	cmp("client503", a.Client503, b.Client503)
	cmp("retryAfterViolations", a.RetryAfterViolations, b.RetryAfterViolations)
	cmp("queueHighWater", a.QueueHighWater, b.QueueHighWater)
	cmp("engineTicks", a.EngineTicks, b.EngineTicks)
	cmp("goodputPerKTicks", a.GoodputPerKTicks, b.GoodputPerKTicks)
	cmp("placerCommits", a.PlacerCommits, b.PlacerCommits)
	keys := map[string]bool{}
	for k := range a.TerminalByState {
		keys[k] = true
	}
	for k := range b.TerminalByState {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if a.TerminalByState[k] != b.TerminalByState[k] {
			add("terminalByState[%s]: %d, baseline %d", k, a.TerminalByState[k], b.TerminalByState[k])
		}
	}
	return diffs
}

// Percentile returns the exact q-th percentile (0 ≤ q ≤ 1) of samples by
// sorting a copy; 0 when the sample set is empty. The nearest-rank method
// keeps it deterministic for a fixed sample multiset.
func Percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	idx := int(q*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
