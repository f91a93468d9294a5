package metasched

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/criticalworks"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "regenerate testdata/work.golden")

// voJobs is the bare-VO row's corpus size.
const voJobs = 100

// workColumns are the series the bare-VO row counts, by name; a labelled
// family contributes one column per label set.
var workColumns = []string{
	"grid_criticalworks_builds_total",
	"grid_criticalworks_evaluations_total",
	"grid_criticalworks_collisions_total",
	"grid_strategy_levels_built_total",
	"grid_strategy_levels_failed_total",
	"grid_metasched_events_total",
}

// TestWorkLedger is the work ledger's bare-VO row: the work one job costs
// the VO and the engine driven directly, with no service in front, counted,
// not timed. The row is gridbench's vo_faults at seed 1 without its warm-up:
// the Fig. 4 corpus (deadline factor 1.8) over workload.Default(1)'s two
// domains, strategies S1, S2, S3, MS1 in turn, MinCost, external load every
// 5 ticks on average, node availability 0.98 with MTTR 20, domain outages
// with probability 0.1 and mid-run task failures at rate 0.05, so the whole
// recovery ladder runs. Each column's count per job is compared with
// testdata/work.golden, which -update regenerates; any difference fails.
//
// The columns: critical-works builds by result, DP slot-fitting probes and
// collisions, supporting schedules built and estimation levels failed by
// strategy family, and VO lifecycle events by kind.
func TestWorkLedger(t *testing.T) {
	var b bytes.Buffer
	b.WriteString("# Work ledger (TestWorkLedger): counts per job; go test ./internal/metasched -run TestWorkLedger -update regenerates it.\n")
	reg := runVOFaults(t)
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "vo_faults jobs %d\n", voJobs)
	for sc := bufio.NewScanner(&prom); sc.Scan(); {
		series, value, ok := strings.Cut(sc.Text(), " ")
		name, _, _ := strings.Cut(series, "{")
		if !ok || !slices.Contains(workColumns, name) {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", sc.Text(), err)
		}
		fmt.Fprintf(&b, "vo_faults %s %s\n", series, strconv.FormatFloat(v/voJobs, 'f', -1, 64))
	}

	path := filepath.Join("testdata", "work.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (go test ./internal/metasched -run TestWorkLedger -update creates it): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("%s differs from the run; -update regenerates it\nrun:\n%s\ngolden:\n%s", path, b.Bytes(), want)
	}
}

// runVOFaults runs the bare-VO row's voJobs jobs to quiescence and returns
// the registry they counted into. Every job must end terminal.
func runVOFaults(t *testing.T) *telemetry.Registry {
	t.Helper()
	wl := workload.Default(1)
	wl.DeadlineFactor = 1.8
	wl.TransferLo, wl.TransferHi = 2, 8
	wl.PipelineProb, wl.MaxPipeline = 0.6, 3
	wl.MinWidth, wl.MaxWidth = 2, 3
	wl.MinLayers, wl.MaxLayers = 3, 4
	wl.MeanInterarrival = 16
	flow := workload.New(wl).Flow(0, voJobs, 0)
	until := flow[len(flow)-1].At + 200
	mtbf, mttr := faults.ForAvailability(0.98, 20)
	reg := telemetry.NewRegistry()
	e := sim.New()
	vo := NewVO(e, workload.New(workload.Default(1)).Environment(2), Config{
		ExternalMeanGap: 5, ExternalLead: 8, ExternalDurLo: 10, ExternalDurHi: 30, ExternalUntil: until,
		Objective: criticalworks.MinCost,
		Seed:      1,
		Telemetry: reg,
		Faults: faults.Config{
			MTBF: mtbf, MTTR: mttr, DomainOutageProb: 0.1,
			TaskFailRate: 0.05, MaxRetries: 2, Until: until, Seed: 1,
		},
	})
	types := []strategy.Type{strategy.S1, strategy.S2, strategy.S3, strategy.MS1}
	for i, a := range flow {
		if err := vo.Submit(a.Job, types[i%len(types)], a.At); err != nil {
			t.Fatalf("submit %s: %v", a.Job.Name, err)
		}
	}
	e.Run()
	if n := len(vo.Results()); n != voJobs {
		t.Fatalf("%d of %d jobs terminal", n, voJobs)
	}
	return reg
}
