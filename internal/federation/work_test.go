package federation

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "regenerate testdata/work.golden")

// workJobs is the federation row's corpus size.
const workJobs = 50

// TestWorkLedger is the work ledger's federation row: the work one
// federated job costs, counted, not timed. A journaled router and two
// journaled shards on loopback HTTP take workJobs jobs at seed 1, one at a
// time, so every handoff meets an idle shard, with a heartbeat so long that
// no ping fires. The row is each column's count per job, compared with
// testdata/work.golden, which -update regenerates; any difference fails.
// The columns: HTTP requests per federation endpoint, journal appends and
// fsyncs per tier, handoffs, handoff retries and terminal notices.
func TestWorkLedger(t *testing.T) {
	routerReg, shardReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	openJournal := func(reg *telemetry.Registry) *journal.Journal {
		j, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncAlways,
			IsTerminal: service.Terminal, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = j.Close() })
		return j
	}
	f := startHTTPFederation(t, 2, func(_ int, cfg *service.Config) bool {
		cfg.Journal = openJournal(shardReg)
		return false
	}, func(cfg *Config) {
		cfg.Seed, cfg.Telemetry, cfg.Journal = 1, routerReg, openJournal(routerReg)
		cfg.HeartbeatInterval = time.Hour
	})
	waitJoined(t, f)

	paths := []string{"handoff", "join", "ping", "revoke", "terminal"}
	read := func() map[string]float64 {
		out := map[string]float64{}
		for _, p := range paths {
			sent, _ := f.requests.counts("/v1/federation/" + p)
			out["http /v1/federation/"+p] = float64(sent)
		}
		for tier, reg := range map[string]*telemetry.Registry{"router": routerReg, "shard": shardReg} {
			s := samples(t, reg)
			out["journal "+tier+" appends"] = s["grid_journal_appends_total"]
			out["journal "+tier+" fsyncs"] = s["grid_journal_fsyncs_total"]
		}
		s := samples(t, routerReg)
		out["grid_fed_handoffs_total"] = s["grid_fed_handoffs_total"]
		out["grid_fed_handoff_retries_total"] = s["grid_fed_handoff_retries_total"]
		for _, m := range f.members {
			out["grid_fed_member_terminal_notices_total"] += float64(m.notifies.Value())
		}
		return out
	}

	before := read()
	for i := 0; i < workJobs; i++ {
		id := fmt.Sprintf("work-%02d", i)
		if _, err := f.router.Submit(testJob(id, 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
		waitRouterTerminal(t, f.router, id, 10*time.Second)
	}
	after := read()

	var b bytes.Buffer
	b.WriteString("# Work ledger (TestWorkLedger): counts per job; go test ./internal/federation -run TestWorkLedger -update regenerates it.\n")
	fmt.Fprintf(&b, "federation jobs %d\n", workJobs)
	cols := make([]string, 0, len(after))
	for col := range after {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	for _, col := range cols {
		perJob := (after[col] - before[col]) / workJobs
		fmt.Fprintf(&b, "federation %s %s\n", col, strconv.FormatFloat(perJob, 'f', -1, 64))
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
		t.Fatalf("missing golden (go test ./internal/federation -run TestWorkLedger -update creates it): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("%s differs from the run; -update regenerates it\nrun:\n%s\ngolden:\n%s", path, b.Bytes(), want)
	}
}

// samples reads reg's series as GET /metrics exposes them.
func samples(t *testing.T, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	return scrape(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_ = reg.WritePrometheus(w)
	}))
}
