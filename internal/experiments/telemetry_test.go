package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// The telemetry differential suite: enabling the metrics registry must be
// pure observation. For each instrumented experiment, every report byte,
// raw value, and trace byte must be identical with telemetry off (nil
// registry) and on, at both the sequential and the wide worker count (Fig. 2
// has no worker count and runs the same at both).

func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	workerCounts := []int{1, 8}

	cases := []struct {
		name string
		run  func(t *testing.T, workers int, reg *telemetry.Registry) diffOutcome
	}{
		{"fig2", func(t *testing.T, workers int, reg *telemetry.Registry) diffOutcome {
			r, err := fig2(Config{Telemetry: reg})
			return capture(t, r, err, nil)
		}},
		{"fig3a", func(t *testing.T, workers int, reg *telemetry.Registry) diffOutcome {
			cfg := Config{Seed: 3, Jobs: 40, Workers: workers, Telemetry: reg}
			r, err := fig3a(cfg)
			return capture(t, r, err, nil)
		}},
		{"ablation-levels", gridsimRow("ablation-levels")},
		{"comparison", gridsimRow("comparison")},
		{"fig4", func(t *testing.T, workers int, reg *telemetry.Registry) diffOutcome {
			var trace bytes.Buffer
			cfg := Config{Seed: 3, Jobs: 25, Workers: workers, Telemetry: reg, Trace: &trace}
			r, err := fig4a(cfg)
			return capture(t, r, err, &trace)
		}},
	}

	for _, tc := range cases {
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(t *testing.T) {
				t.Parallel()
				off := tc.run(t, workers, nil)
				reg := telemetry.NewRegistry()
				on := tc.run(t, workers, reg)

				if !bytes.Equal(off.report, on.report) {
					t.Errorf("report bytes differ with telemetry on\noff:\n%s\non:\n%s",
						off.report, on.report)
				}
				if !reflect.DeepEqual(off.values, on.values) {
					t.Errorf("raw values differ with telemetry on:\noff: %v\non:  %v",
						off.values, on.values)
				}
				if !bytes.Equal(off.trace, on.trace) {
					t.Errorf("trace bytes differ with telemetry on (%d vs %d bytes)",
						len(off.trace), len(on.trace))
				}

				// And the run must actually have been observed: a registry
				// that stayed empty means the plumbing silently fell off.
				var prom bytes.Buffer
				if err := reg.WritePrometheus(&prom); err != nil {
					t.Fatal(err)
				}
				if prom.Len() == 0 {
					t.Error("telemetry registry is empty after an instrumented run")
				}
			})
		}
	}
}

// gridsimRow runs gridsim's row id on 20 jobs at seed 3, with the registry
// handed in the way gridsim's -telemetry hands it.
func gridsimRow(id string) func(t *testing.T, workers int, reg *telemetry.Registry) diffOutcome {
	return func(t *testing.T, workers int, reg *telemetry.Registry) diffOutcome {
		cfg := DefaultConfig(3, 20)
		cfg.Workers, cfg.Telemetry = workers, reg
		for _, e := range Experiments {
			if e.ID == id {
				r, err := e.Run(cfg)
				return capture(t, r, err, nil)
			}
		}
		t.Fatalf("no experiment %q", id)
		return diffOutcome{}
	}
}

// TestTelemetryRegistryIndependentOfWorkers: the counters themselves (not
// just the reports) must agree between worker counts — the same builds
// happen, only scheduled differently. Duration histograms are exempt
// (wall time is nondeterministic); counter families must match exactly.
func TestTelemetryRegistryIndependentOfWorkers(t *testing.T) {
	countersAt := func(workers int) map[string]uint64 {
		reg := telemetry.NewRegistry()
		cfg := Config{Seed: 2, Jobs: 30, Workers: workers, Telemetry: reg}
		if _, err := fig3a(cfg); err != nil {
			t.Fatal(err)
		}
		got := map[string]uint64{}
		for _, family := range []string{
			"grid_criticalworks_evaluations_total",
			"grid_criticalworks_collisions_total",
		} {
			got[family] = reg.Counter(family, "").Value()
		}
		for _, result := range []string{"ok", "error"} {
			got["builds:"+result] = reg.Counter("grid_criticalworks_builds_total", "",
				telemetry.L("result", result)).Value()
		}
		return got
	}
	seq := countersAt(1)
	par := countersAt(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("counter totals differ between workers=1 and workers=8:\nseq: %v\npar: %v", seq, par)
	}
	if seq["builds:ok"] == 0 {
		t.Fatal("no successful builds counted — instrumentation fell off the fig3 path")
	}
}
