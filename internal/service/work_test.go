package service

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "regenerate the testdata goldens")

// steadyJobs is the steady row's corpus size.
const steadyJobs = 96

// workColumns are the series the service rows count, by name; a labelled
// family contributes one column per label set.
var workColumns = []string{
	"grid_criticalworks_builds_total",
	"grid_criticalworks_evaluations_total",
	"grid_criticalworks_collisions_total",
	"grid_journal_appends_total",
	"grid_journal_fsyncs_total",
}

// TestWorkLedger is the work ledger's service rows: the work one job costs
// the in-process service, counted, not timed. Each row drives one
// manual-mode server over a journal that syncs every append, and records
// each column's count per offered job, compared with testdata/work.golden,
// which -update regenerates; any difference fails. The journal decides
// nothing, so the planner's counts are those of the same run without one.
//
//   - steady: the closed loop of gridbench's svc_steady at seed 1 (Poisson
//     arrivals, strategies S1, S2, S3, MS1 and three priorities in turn,
//     batches of four, the queue run dry and the engine quiesced every 8).
//   - bursty: the overload of TestBurstyOverloadMatchesRecordedRun at
//     placers 0.
//
// The columns: critical-works builds by result, DP slot-fitting probes and
// collisions, and journal appends and fsyncs.
func TestWorkLedger(t *testing.T) {
	var b bytes.Buffer
	b.WriteString("# Work ledger (TestWorkLedger): counts per job; go test ./internal/service -run TestWorkLedger -update regenerates it.\n")
	for _, row := range []struct {
		name string
		run  func(t *testing.T, jnl *journal.Journal, reg *telemetry.Registry) (jobs int)
	}{
		{"steady", runSteady},
		{"bursty", func(t *testing.T, jnl *journal.Journal, reg *telemetry.Registry) int {
			runBursty(t, 0, jnl, reg)
			return burstyJobs
		}},
	} {
		reg := telemetry.NewRegistry()
		jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncAlways,
			IsTerminal: Terminal, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		jobs := row.run(t, jnl, reg)
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s jobs %d\n", row.name, jobs)
		var cols []string
		counts := map[string]float64{}
		exposition := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _ = reg.WritePrometheus(w) })
		for series, v := range scrape(t, exposition) {
			name, _, _ := strings.Cut(series, "{")
			if slices.Contains(workColumns, name) {
				cols = append(cols, series)
				counts[series] = v
			}
		}
		sort.Strings(cols)
		for _, col := range cols {
			fmt.Fprintf(&b, "%s %s %s\n", row.name, col, strconv.FormatFloat(counts[col]/float64(jobs), 'f', -1, 64))
		}
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
		t.Fatalf("missing golden (go test ./internal/service -run TestWorkLedger -update creates it): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("%s differs from the run; -update regenerates it\nrun:\n%s\ngolden:\n%s", path, b.Bytes(), want)
	}
}

// runSteady offers steadyJobs jobs of workload.Default(1)'s Poisson flow to
// a manual-mode server on 2 domains in svc_steady's closed loop, then
// drains it, and returns the jobs offered.
func runSteady(t *testing.T, jnl *journal.Journal, reg *telemetry.Registry) int {
	t.Helper()
	gen := workload.New(workload.Default(1))
	s := newServer(t, Config{
		Env:       gen.Environment(2),
		QueueCap:  64,
		Telemetry: reg,
		Journal:   jnl,
		Sched:     metasched.Config{Seed: 1, Placers: 4},
	})
	strategies := []string{"S1", "S2", "S3", "MS1"}
	for i, a := range gen.FlowWith(workload.ArrivalSpec{Kind: workload.ProcPoisson}, 0, steadyJobs, 0) {
		wire := jobio.FromJob(a.Job)
		wire.Deadline = int64(a.Job.Deadline - a.At)
		if _, err := s.Submit(wire, strategies[i%len(strategies)], i%3); err != nil && submitCode(err) == CodeInternal {
			t.Fatalf("submit %s: %v", wire.Name, err)
		}
		if (i+1)%8 == 0 {
			s.Process(-1)
			s.Quiesce()
		}
	}
	s.Process(-1)
	s.Quiesce()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return steadyJobs
}
