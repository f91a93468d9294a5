package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/telemetry"
)

// openJournal opens (or reopens) a journal over dir with the service's
// terminal predicate.
func openJournal(t *testing.T, dir string) (*journal.Journal, *journal.Recovery) {
	t.Helper()
	j, rec, err := journal.Open(journal.Options{Dir: dir, IsTerminal: Terminal})
	if err != nil {
		t.Fatal(err)
	}
	return j, rec
}

// newJournaledServer builds a manual-mode server over a fresh or recovered
// journal directory and restores whatever the journal remembers.
func newJournaledServer(t *testing.T, dir string) (*Server, RecoveryStats) {
	t.Helper()
	reg := telemetry.NewRegistry()
	jnl, rec, err := journal.Open(journal.Options{Dir: dir, IsTerminal: Terminal, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	s := newServer(t, Config{Journal: jnl, Telemetry: reg})
	stats, err := s.Restore(rec)
	if err != nil {
		t.Fatal(err)
	}
	return s, stats
}

// TestJournalRecoveryAcrossCrash is the in-process crash: a server accepts
// work, completes some of it, and is abandoned without Drain. A successor
// over the same journal dir must remember the terminal jobs (exactly once,
// never re-executed) and re-enqueue the rest.
func TestJournalRecoveryAcrossCrash(t *testing.T) {
	dir := t.TempDir()

	victim, stats := newJournaledServer(t, dir)
	if stats.Restored != 0 {
		t.Fatalf("fresh journal restored something: %+v", stats)
	}
	for i := 0; i < 4; i++ {
		if _, err := victim.Submit(wireJob(fmt.Sprintf("j%d", i), 60), "S1", i); err != nil {
			t.Fatalf("submit j%d: %v", i, err)
		}
	}
	// Highest priority first: j3 then j2 get scheduled and completed.
	victim.Process(2)
	victim.Quiesce()
	// CRASH: no drain, no close. Only what the journal fsynced exists.

	heir, stats := newJournaledServer(t, dir)
	if stats.Restored != 4 || stats.Terminal != 2 || stats.Requeued != 2 || stats.DuplicatesSuppressed != 0 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	// Terminal jobs are ledgered, not re-run.
	for _, id := range []string{"j3", "j2"} {
		rec, ok := heir.Job(id)
		if !ok || rec.State != StateCompleted {
			t.Fatalf("%s after recovery: %+v", id, rec)
		}
	}
	// The duplicate-submit guard survived the restart for every ID.
	for i := 0; i < 4; i++ {
		_, err := heir.Submit(wireJob(fmt.Sprintf("j%d", i), 60), "S1", 0)
		if submitCode(err) != CodeDuplicate {
			t.Fatalf("j%d resubmit after recovery: %v", i, err)
		}
	}
	// The requeued jobs run to completion exactly once.
	heir.Process(-1)
	heir.Quiesce()
	for i := 0; i < 4; i++ {
		rec, _ := heir.Job(fmt.Sprintf("j%d", i))
		if rec.State != StateCompleted {
			t.Fatalf("j%d: %+v", i, rec)
		}
	}
	m := readTally(heir)
	if m.Completed != 2 || journalFailures(t, heir) != 0 {
		t.Fatalf("heir metrics (only requeued jobs complete here): %+v, journal failures %v", m, journalFailures(t, heir))
	}
	if rs := heir.Recovery(); rs == nil || rs.Requeued != 2 {
		t.Fatalf("Recovery() accessor: %+v", rs)
	}
}

// journalStates reads the raw segment files under dir and returns, in LSN
// order, the state of every record written for job — the records themselves,
// not the fold journal.Recover returns.
func journalStates(t *testing.T, dir, job string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	var states []string
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var line struct {
				Rec journal.Record `json:"rec"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("%s: %v", seg, err)
			}
			if line.Rec.Job == job {
				states = append(states, line.Rec.State)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return states
}

// TestJournalHoldsAcceptAndTerminalOnly: a job's journal is its accept and
// its terminal record. "scheduled" is a state of the live process — the
// ledger and GET /v1/jobs/{id} report it while the job is in flight — and
// never reaches the disk, because Restore would read it as "queued".
func TestJournalHoldsAcceptAndTerminalOnly(t *testing.T) {
	dir := t.TempDir()
	s, _ := newJournaledServer(t, dir)
	if _, err := s.Submit(wireJob("j", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	s.Process(-1)

	if rec, _ := s.Job("j"); rec.State != StateScheduled {
		t.Fatalf("in flight, the ledger says %q, want %q", rec.State, StateScheduled)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/jobs/j", nil))
	var got Record
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil || got.State != StateScheduled {
		t.Fatalf("GET /v1/jobs/j in flight: %d %s (%v)", rr.Code, rr.Body, err)
	}
	if states := journalStates(t, dir, "j"); !reflect.DeepEqual(states, []string{StateQueued}) {
		t.Fatalf("in flight, the journal holds %v, want only the accept", states)
	}

	s.Quiesce()
	if states := journalStates(t, dir, "j"); !reflect.DeepEqual(states, []string{StateQueued, StateCompleted}) {
		t.Fatalf("completed job's journal is %v, want [queued completed]", states)
	}
	if n := journalFailures(t, s); n != 0 {
		t.Fatalf("journal failures: %v", n)
	}
}

// TestKilledInFlightRestoresExactlyOnce: a process that dies after handing a
// job to the VO but before the job completes left only the accept on disk.
// Its successor must take the job back exactly once — requeued on a plain
// daemon, held for the router's resend on a federated shard — and run it to
// one terminal record.
func TestKilledInFlightRestoresExactlyOnce(t *testing.T) {
	for _, hold := range []bool{false, true} {
		t.Run(fmt.Sprintf("hold=%v", hold), func(t *testing.T) {
			dir := t.TempDir()
			victim, _ := newJournaledServer(t, dir)
			if _, err := victim.Submit(wireJob("j", 60), "S1", 0); err != nil {
				t.Fatal(err)
			}
			victim.Process(-1) // dequeued, planned, booked — and never finished
			// CRASH: no Quiesce, no Drain.

			jnl, rec := openJournal(t, dir)
			defer jnl.Close()
			fired := 0
			heir := newServer(t, Config{Journal: jnl, HoldRecovered: hold, OnTerminal: func(r Record) {
				if r.ID == "j" {
					fired++
				}
			}})
			stats, err := heir.Restore(rec)
			if err != nil {
				t.Fatal(err)
			}
			want := RecoveryStats{Restored: 1, Requeued: 1}
			if hold {
				want = RecoveryStats{Restored: 1, Held: 1}
			}
			if stats.Restored != want.Restored || stats.Requeued != want.Requeued || stats.Held != want.Held ||
				stats.Terminal != 0 || stats.Invalid != 0 || stats.DuplicatesSuppressed != 0 {
				t.Fatalf("recovery stats %+v, want %+v", stats, want)
			}
			if again, _ := heir.Restore(rec); again.Restored != 0 || again.DuplicatesSuppressed != 1 {
				t.Fatalf("second restore took the job again: %+v", again)
			}
			if hold {
				if !heir.ResumeHeld("j") {
					t.Fatal("resumed no held job, want j")
				}
			}
			if n := heir.Process(-1); n != 1 {
				t.Fatalf("heir processed %d jobs, want the one restored", n)
			}
			heir.Quiesce()
			if r, _ := heir.Job("j"); r.State != StateCompleted || fired != 1 {
				t.Fatalf("after recovery j is %+v with %d terminal events, want completed once", r, fired)
			}
			// Restore folded the accept into its snapshot; what the heir wrote
			// since is the one terminal record.
			if states := journalStates(t, dir, "j"); !reflect.DeepEqual(states, []string{StateCompleted}) {
				t.Fatalf("since the restore snapshot the journal holds %v for j, want [completed]", states)
			}
		})
	}
}

// TestRestoreIdempotent: restoring the same recovery twice must suppress
// every entry the second time — terminal exactly once, queued exactly once.
func TestRestoreIdempotent(t *testing.T) {
	dir := t.TempDir()
	victim, _ := newJournaledServer(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := victim.Submit(wireJob(fmt.Sprintf("j%d", i), 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	victim.Process(1)
	victim.Quiesce()

	jnl, rec := openJournal(t, dir)
	defer jnl.Close()
	s := newServer(t, Config{Journal: jnl})
	first, err := s.Restore(rec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Restored != 3 || first.DuplicatesSuppressed != 0 {
		t.Fatalf("first restore: %+v", first)
	}
	second, err := s.Restore(rec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Restored != 0 || second.DuplicatesSuppressed != 3 {
		t.Fatalf("second restore not suppressed: %+v", second)
	}
	if depth := readTally(s).QueueDepth; depth != 2 {
		t.Fatalf("queue depth after double restore: %d, want 2", depth)
	}

	// Concurrent duplicate submissions against the restored ledger (the
	// -race guard for the recovery/duplicate-suppression path).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := s.Submit(wireJob(fmt.Sprintf("j%d", i), 60), "S1", 0); submitCode(err) != CodeDuplicate {
					t.Errorf("duplicate j%d admitted: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestJournalDifferential: with journaling disabled the service must
// behave byte-identically; with it enabled, the client-visible records
// must still be identical — the journal is pure bookkeeping.
func TestJournalDifferential(t *testing.T) {
	scenario := func(s *Server) []Record {
		t.Helper()
		for i := 0; i < 6; i++ {
			if _, err := s.Submit(wireJob(fmt.Sprintf("j%d", i), 60), "S1", i%3); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Submit(wireJob("tight", 4), "S1", 0); submitCode(err) != CodeInfeasible {
			t.Fatal("infeasible not rejected")
		}
		s.Process(-1)
		s.Quiesce()
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s.Jobs()
	}

	bare := scenario(newServer(t, Config{Sched: metasched.Config{Seed: 7}}))

	jnl, rec := openJournal(t, t.TempDir())
	defer jnl.Close()
	journaled := newServer(t, Config{Journal: jnl, Sched: metasched.Config{Seed: 7}})
	if _, err := journaled.Restore(rec); err != nil {
		t.Fatal(err)
	}
	withJournal := scenario(journaled)

	if !reflect.DeepEqual(bare, withJournal) {
		t.Fatalf("journaling changed observable behavior:\nbare: %+v\njournaled: %+v", bare, withJournal)
	}
}

// TestJournalMatchesLedger replays the journal after a full lifecycle and
// checks it agrees with the in-memory ledger job for job.
func TestJournalMatchesLedger(t *testing.T) {
	dir := t.TempDir()
	s, _ := newJournaledServer(t, dir)
	for i := 0; i < 5; i++ {
		if _, err := s.Submit(wireJob(fmt.Sprintf("j%d", i), 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Process(3)
	s.Quiesce()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 5 {
		t.Fatalf("journal jobs: %d", len(rec.Jobs))
	}
	for _, js := range rec.Jobs {
		ledger, ok := s.Job(js.Job)
		if !ok {
			t.Fatalf("journal job %q unknown to ledger", js.Job)
		}
		if js.State != ledger.State {
			t.Fatalf("%s: journal %q vs ledger %q", js.Job, js.State, ledger.State)
		}
		if !Terminal(js.State) {
			t.Fatalf("%s: non-terminal after drain: %q", js.Job, js.State)
		}
	}
	// Drain compacted: the directory must be a snapshot plus one (empty)
	// active segment's worth of replay work.
	if rec.Records != 0 || rec.SnapshotLSN == 0 {
		t.Fatalf("drain did not compact: %+v", rec)
	}
}

// TestRestoreRejectsUnbuildableEntries: a journal whose live entry cannot
// be rebuilt (no wire payload) is ledgered as rejected, not dropped and
// not crashed on.
func TestRestoreRejectsUnbuildableEntries(t *testing.T) {
	dir := t.TempDir()
	jnl, _ := openJournal(t, dir)
	if _, err := jnl.Append(journal.Record{Job: "ghost", State: StateQueued, Strategy: "S1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := jnl.Append(journal.Record{Job: "alien", State: StateQueued, Strategy: "S9"}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	jnl2, rec := openJournal(t, dir)
	defer jnl2.Close()
	s := newServer(t, Config{Journal: jnl2})
	stats, err := s.Restore(rec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Invalid != 2 || stats.Requeued != 0 {
		t.Fatalf("stats: %+v", stats)
	}
	for _, id := range []string{"ghost", "alien"} {
		r, ok := s.Job(id)
		if !ok || r.State != StateRejected {
			t.Fatalf("%s: %+v", id, r)
		}
	}
}

// TestDrainIdempotentConcurrent: many concurrent Drain calls must produce
// exactly one drain — no double snapshot, no race on the engine — and all
// return the first drain's (nil) error.
func TestDrainIdempotentConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, Config{SnapshotPath: dir + "/drain.json"})
	s.Start()
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(wireJob(fmt.Sprintf("j%d", i), 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = s.Drain(context.Background())
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("drain %d: %v", g, err)
		}
	}
	m := s.Metrics()
	if m.Drained+m.Completed != 4 {
		t.Fatalf("jobs lost across concurrent drains: %+v", m)
	}
	// And a sequential repeat is still clean.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreJournalsNothing: the journal a recovery came from already holds
// each recovered job's accept, and the compaction that ends Restore keeps
// it, so Restore appends nothing — no record, and under -fsync always no
// fsync, per queued job at startup. A second crash and restore still
// requeues each job once.
func TestRestoreJournalsNothing(t *testing.T) {
	const jobs = 5
	dir := t.TempDir()
	victim, _ := newJournaledServer(t, dir)
	for i := 0; i < jobs; i++ {
		if _, err := victim.Submit(wireJob(fmt.Sprintf("j%d", i), 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	// CRASH, twice: each heir restores and dies before scheduling anything.
	for round := 0; round < 2; round++ {
		jnl, rec := openJournal(t, dir)
		heir := newServer(t, Config{Journal: jnl})
		before := jnl.Stats().NextLSN // every append takes the next LSN
		stats, err := heir.Restore(rec)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Requeued != jobs || stats.Restored != jobs {
			t.Fatalf("round %d: recovery stats %+v, want %d restored and requeued", round, stats, jobs)
		}
		if got := jnl.Stats().NextLSN - before; got != 0 {
			t.Fatalf("round %d: Restore appended %d journal records, want 0", round, got)
		}
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedDrainSnapshotKeepsJobsQueued: Drain marked every queued job
// drained — journaled, and the terminal stream fired — before it wrote the
// snapshot. When the write failed, Drain returned the error, but the jobs
// were already terminal in the journal, so a restart ledgered them and ran
// none. Now the snapshot is written first: on failure the jobs stay queued,
// and a restart requeues them.
func TestFailedDrainSnapshotKeepsJobsQueued(t *testing.T) {
	dir := t.TempDir()
	jnl, rec := openJournal(t, dir)
	defer jnl.Close()
	terminal := 0
	s := newServer(t, Config{Journal: jnl, OnTerminal: func(Record) { terminal++ },
		SnapshotPath: filepath.Join(t.TempDir(), "missing", "drained.json")})
	if _, err := s.Restore(rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(wireJob(fmt.Sprintf("q%d", i), 60), "S1", 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err == nil {
		t.Fatal("Drain wrote a snapshot into a directory that does not exist")
	}
	if m := readTally(s); m.Drained != 0 || m.QueueDepth != 3 || terminal != 0 {
		t.Fatalf("after the failed drain: %d drained, %d queued, %d terminal notices; want 0, 3, 0", m.Drained, m.QueueDepth, terminal)
	}

	jnl2, rec2 := openJournal(t, dir)
	defer jnl2.Close()
	stats, err := newServer(t, Config{Journal: jnl2}).Restore(rec2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeued != 3 || stats.Terminal != 0 {
		t.Fatalf("restart after the failed drain: %+v, want all 3 requeued", stats)
	}
}

// TestDrainedJobIsADuplicateAfterRestart: a drain writes a still-queued job
// to the snapshot and ledgers it drained, a tombstone. A restart over the
// same journal keeps the tombstone, and a client's submission (epoch 0)
// never outranks one, so the snapshot's own wire form comes back 409: the
// exactly-once argument of a federated shard rests on that refusal. The
// same job under a new name is admitted.
func TestDrainedJobIsADuplicateAfterRestart(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "drained.json")
	jnl, rec := openJournal(t, dir)
	s := newServer(t, Config{Journal: jnl, SnapshotPath: snap})
	if _, err := s.Restore(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(wireJob("d0", 60), "S1", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	var drained []jobio.Job
	err = json.NewDecoder(f).Decode(&drained)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(drained) != 1 || drained[0].Name != "d0" {
		t.Fatalf("snapshot holds %+v, want the one queued job d0", drained)
	}

	jnl2, rec2 := openJournal(t, dir)
	defer jnl2.Close()
	heir := newServer(t, Config{Journal: jnl2})
	if _, err := heir.Restore(rec2); err != nil {
		t.Fatal(err)
	}
	h := heir.Handler()
	body, err := json.Marshal(SubmitRequest{Job: drained[0], Strategy: "S1"})
	if err != nil {
		t.Fatal(err)
	}
	if rr := postRaw(h, string(body)); rr.Code != http.StatusConflict {
		t.Fatalf("resubmitting the drained job after the restart: %d %s, want 409", rr.Code, rr.Body)
	}
	renamed := drained[0]
	renamed.Name = "d0-again"
	if body, err = json.Marshal(SubmitRequest{Job: renamed, Strategy: "S1"}); err != nil {
		t.Fatal(err)
	}
	if rr := postRaw(h, string(body)); rr.Code != http.StatusAccepted {
		t.Fatalf("the drained job under a new name: %d %s, want 202", rr.Code, rr.Body)
	}
}
