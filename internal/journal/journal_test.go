package journal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/jobio"
	"repro/internal/telemetry"
)

// terminal mirrors the service's terminal-state predicate without
// importing it (service imports journal).
func terminal(state string) bool {
	return state == "completed" || state == "rejected" || state == "drained" || state == "revoked"
}

func testWire(name string) *jobio.Job {
	return &jobio.Job{
		Name:     name,
		Deadline: 60,
		Tasks:    []jobio.Task{{Name: "A", BaseTime: 2, Volume: 10}},
	}
}

func mustOpen(t *testing.T, opts Options) (*Journal, *Recovery) {
	t.Helper()
	if opts.IsTerminal == nil {
		opts.IsTerminal = terminal
	}
	j, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, rec
}

func mustAppend(t *testing.T, j *Journal, rec Record) uint64 {
	t.Helper()
	lsn, err := j.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := mustOpen(t, Options{Dir: dir})
	if len(rec.Jobs) != 0 || rec.LastLSN != 0 {
		t.Fatalf("fresh journal not empty: %+v", rec)
	}
	mustAppend(t, j, Record{Job: "a", State: "queued", Strategy: "S1", Priority: 2, Wire: testWire("a")})
	mustAppend(t, j, Record{Job: "b", State: "queued", Strategy: "S2", Wire: testWire("b")})
	mustAppend(t, j, Record{Job: "a", State: "scheduled"})
	mustAppend(t, j, Record{Job: "a", State: "completed"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastLSN != 4 || got.Records != 4 || got.TornBytes != 0 {
		t.Fatalf("recovery: %+v", got)
	}
	if len(got.Jobs) != 2 {
		t.Fatalf("jobs: %d, want 2", len(got.Jobs))
	}
	a, b := got.Jobs[0], got.Jobs[1]
	if a.Job != "a" || a.State != "completed" || a.Strategy != "S1" || a.Priority != 2 || a.Wire == nil {
		t.Fatalf("job a: %+v", a)
	}
	if a.FirstLSN != 1 {
		t.Fatalf("job a LSN: %+v", a)
	}
	if b.Job != "b" || b.State != "queued" || b.Wire == nil || b.Wire.Name != "b" {
		t.Fatalf("job b: %+v", b)
	}
}

// TestReopenContinuesLSN proves Open picks up exactly where the previous
// handle stopped, across multiple sessions.
func TestReopenContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		j, rec := mustOpen(t, Options{Dir: dir})
		if want := uint64(i * 2); rec.LastLSN != want {
			t.Fatalf("session %d: LastLSN %d, want %d", i, rec.LastLSN, want)
		}
		id := fmt.Sprintf("j%d", i)
		if lsn := mustAppend(t, j, Record{Job: id, State: "queued", Wire: testWire(id)}); lsn != uint64(i*2+1) {
			t.Fatalf("session %d: lsn %d", i, lsn)
		}
		mustAppend(t, j, Record{Job: id, State: "completed"})
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastLSN != 6 || len(rec.Jobs) != 3 {
		t.Fatalf("final recovery: %+v", rec)
	}
}

func TestRotationAndSegmentNames(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	j, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 1, Telemetry: reg}) // rotate after every append
	for i := 0; i < 5; i++ {
		mustAppend(t, j, Record{Job: fmt.Sprintf("j%d", i), State: "queued", Wire: testWire("x")})
	}
	if n := reg.Counter("grid_journal_rotations_total", "").Value(); n != 5 {
		t.Fatalf("rotations: %d", n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 6 { // 5 sealed + 1 empty active
		t.Fatalf("segments: %v", segs)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastLSN != 5 || len(rec.Jobs) != 5 {
		t.Fatalf("recovery: %+v", rec)
	}
}

// checkLive fails unless Stats' Live, the count Append keeps, equals a walk
// of the folded state and want.
func checkLive(t *testing.T, j *Journal, when string, want int) {
	t.Helper()
	live := j.Stats().Live
	j.mu.Lock()
	walk := 0
	for _, js := range j.state {
		if !terminal(js.State) {
			walk++
		}
	}
	j.mu.Unlock()
	if live != walk || live != want {
		t.Fatalf("%s: Stats().Live = %d, a walk of the jobs counts %d, want %d", when, live, walk, want)
	}
}

func TestCompactionFoldsTerminalAndDeletesDeadSegments(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 1})
	mustAppend(t, j, Record{Job: "done", State: "queued", Strategy: "S1", Wire: testWire("done")})
	mustAppend(t, j, Record{Job: "done", State: "completed"})
	mustAppend(t, j, Record{Job: "live", State: "queued", Strategy: "S1", Wire: testWire("live")})
	checkLive(t, j, "after the appends", 1)
	// A tombstone that a new life reopens is live again.
	mustAppend(t, j, Record{Job: "back", State: "revoked", Epoch: 1})
	checkLive(t, j, "after a revocation", 1)
	mustAppend(t, j, Record{Job: "back", State: "queued", Strategy: "S1", Wire: testWire("back"), Epoch: 2})
	checkLive(t, j, "after the revoked job's new life", 2)
	mustAppend(t, j, Record{Job: "back", State: "completed"})
	checkLive(t, j, "after the new life ends", 1)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	checkLive(t, j, "after the compaction", 1)
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("dead segments not deleted: %v", segs)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots: %v", snaps)
	}

	// Appends continue after compaction and recovery sees both worlds.
	mustAppend(t, j, Record{Job: "live", State: "scheduled"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, rec := mustOpen(t, Options{Dir: dir})
	checkLive(t, reopened, "after a reopen", 1)
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotLSN != 6 || rec.LastLSN != 7 || rec.Records != 1 {
		t.Fatalf("recovery: %+v", rec)
	}
	byID := map[string]*JobState{}
	for _, js := range rec.Jobs {
		byID[js.Job] = js
	}
	if d := byID["done"]; d == nil || d.State != "completed" || d.Wire != nil {
		t.Fatalf("terminal job not folded to ledger entry: %+v", d)
	}
	if l := byID["live"]; l == nil || l.State != "scheduled" || l.Wire == nil {
		t.Fatalf("live job lost its wire form: %+v", l)
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	j, _ := mustOpen(t, Options{Dir: dir, CompactEvery: 2, Telemetry: reg})
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("j%d", i)
		mustAppend(t, j, Record{Job: id, State: "queued", Wire: testWire(id)})
		mustAppend(t, j, Record{Job: id, State: "completed"})
	}
	if n := reg.Counter("grid_journal_compactions_total", "").Value(); n != 2 {
		t.Fatalf("compactions: %d", n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 5 || rec.LastLSN != 10 {
		t.Fatalf("recovery: %+v", rec)
	}
}

// TestFailedCompactionKeepsAppending: a snapshot that cannot be written
// leaves the journal appending to the segment it had open. The append that
// triggered the compaction returns its LSN, since its record is written and
// synced; Compact reports the failure; the next terminal append compacts
// once the snapshot can be written. A compaction that closed the segment
// before it wrote the snapshot failed that append and every later one.
// Both failures count in grid_journal_failures_total{op="compact"}, the
// one series that shows a snapshot failing while the segment grows.
func TestFailedCompactionKeepsAppending(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	j, _ := mustOpen(t, Options{Dir: dir, CompactEvery: 1, Telemetry: reg})
	blocker := snapshotPath(dir, 2) // the snapshot the second record triggers
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Job: "a", State: "queued", Wire: testWire("a")})
	if lsn, err := j.Append(Record{Job: "a", State: "completed"}); lsn != 2 || err != nil {
		t.Fatalf("the append that triggered a failed compaction = %d, %v; want 2, nil", lsn, err)
	}
	if err := j.Compact(); err == nil {
		t.Fatal("Compact wrote a snapshot over a directory")
	}
	mustAppend(t, j, Record{Job: "b", State: "queued", Wire: testWire("b")})
	compactions := reg.Counter("grid_journal_compactions_total", "")
	if n := compactions.Value(); n != 0 {
		t.Fatalf("compactions after two failures: %d", n)
	}
	failures := func(op string) uint64 {
		return reg.Counter("grid_journal_failures_total", "", telemetry.L("op", op)).Value()
	}
	if c, r := failures("compact"), failures("rotate"); c != 2 || r != 0 {
		t.Fatalf("failures after two failed compactions: compact %d, rotate %d; want 2, 0", c, r)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Job: "b", State: "completed"})
	if n := compactions.Value(); n != 1 {
		t.Fatalf("the next terminal append did not compact: %d compactions", n)
	}
	mustAppend(t, j, Record{Job: "c", State: "queued", Wire: testWire("c")})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotLSN != 4 || rec.LastLSN != 5 || len(rec.Jobs) != 3 {
		t.Fatalf("recovery: snapshot %d, last LSN %d, %d jobs; want 4, 5, 3", rec.SnapshotLSN, rec.LastLSN, len(rec.Jobs))
	}
}

// TestFailedRotationKeepsAppending: a segment that cannot be opened leaves
// the journal appending to the one it had open, the next append rotates, and
// the failure counts in grid_journal_failures_total{op="rotate"}.
func TestFailedRotationKeepsAppending(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	j, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 1, Telemetry: reg}) // rotate after every append
	// A directory where the first append's rotation opens its segment.
	blocker := segmentPath(dir, 2)
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Job: "a", State: "queued", Wire: testWire("a")})
	mustAppend(t, j, Record{Job: "b", State: "queued", Wire: testWire("b")})
	rotations := reg.Counter("grid_journal_rotations_total", "").Value()
	failures := reg.Counter("grid_journal_failures_total", "", telemetry.L("op", "rotate")).Value()
	if rotations != 1 || failures != 1 {
		t.Fatalf("rotations %d, rotate failures %d; want 1, 1", rotations, failures)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if rec, err := Recover(dir); err != nil || rec.LastLSN != 2 || len(rec.Jobs) != 2 {
		t.Fatalf("recovery: %+v, %v; want last LSN 2, 2 jobs", rec, err)
	}
}

// TestCompactionCostLinearInHistory: every snapshot rewrites every job the
// journal holds, terminal ones included, so compacting every CompactEvery
// terminal jobs wrote N²/(2·CompactEvery) entries over N jobs (≈526k for
// these 4 096). Waiting for as many terminal jobs as half the journal holds
// keeps the total within two entries per terminal job.
func TestCompactionCostLinearInHistory(t *testing.T) {
	reg := telemetry.NewRegistry()
	j, _ := mustOpen(t, Options{Dir: t.TempDir(), Fsync: FsyncNever, CompactEvery: 16, Telemetry: reg})
	defer j.Close()
	compactions := reg.Counter("grid_journal_compactions_total", "")
	const jobs = 4096
	entries, seen := 0, uint64(0)
	for i := range jobs {
		id := "j" + strconv.Itoa(i)
		mustAppend(t, j, Record{Job: id, State: "queued", Wire: testWire(id)})
		mustAppend(t, j, Record{Job: id, State: "completed"})
		if n := compactions.Value(); n != seen {
			entries += len(j.order) // the snapshot just written holds every job
			seen = n
		}
	}
	if entries > 3*jobs {
		t.Errorf("%d compactions wrote %d snapshot entries over %d terminal jobs, want at most %d", seen, entries, jobs, 3*jobs)
	}
}

// lastSegment returns the path of the newest segment with content.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	var best string
	var bestFirst uint64
	for _, s := range segs {
		info, err := os.Stat(s)
		if err != nil || info.Size() == 0 {
			continue
		}
		first, _ := parseSegmentName(filepath.Base(s))
		if best == "" || first > bestFirst {
			best, bestFirst = s, first
		}
	}
	if best == "" {
		t.Fatal("no non-empty segment")
	}
	return best
}

func writeJournal(t *testing.T, dir string, n int, segBytes int64) {
	t.Helper()
	j, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: segBytes})
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("j%d", i)
		mustAppend(t, j, Record{Job: id, State: "queued", Wire: testWire(id)})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncatedRecord(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, 3, 0)
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the last record in half: a crash mid-append.
	if err := os.WriteFile(seg, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornBytes == 0 || !strings.Contains(rec.TornReason, "no trailing newline") {
		t.Fatalf("torn tail not detected: %+v", rec)
	}
	if rec.LastLSN != 2 || len(rec.Jobs) != 2 {
		t.Fatalf("did not recover to last valid record: %+v", rec)
	}

	// Opening for write truncates the tail and appends continue cleanly.
	j, rec2 := mustOpen(t, Options{Dir: dir})
	if rec2.LastLSN != 2 {
		t.Fatalf("open after tear: %+v", rec2)
	}
	mustAppend(t, j, Record{Job: "j9", State: "queued", Wire: testWire("j9")})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec3, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec3.TornBytes != 0 || rec3.LastLSN != 3 || len(rec3.Jobs) != 3 {
		t.Fatalf("after truncate+append: %+v", rec3)
	}
}

func TestTornTailBitFlippedCRC(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, 4, 0)
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the third record's payload; the CRC catches it and
	// replay recovers exactly the records before the flip.
	lines := bytes.SplitAfter(data, []byte("\n"))
	target := lines[2]
	target[len(target)/2] ^= 0x40
	if err := os.WriteFile(seg, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornBytes == 0 {
		t.Fatalf("bit flip not detected: %+v", rec)
	}
	if rec.LastLSN != 2 || len(rec.Jobs) != 2 {
		t.Fatalf("did not recover to last valid record: %+v", rec)
	}
}

// TestCorruptionMidJournalIsHardError: damage anywhere but the final
// segment's tail must fail recovery with a precise error, never silently
// drop the middle of history.
func TestCorruptionMidJournalIsHardError(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, 4, 1) // one record per segment
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	// Corrupt the second segment (not the last).
	var victim string
	for _, s := range segs {
		if first, _ := parseSegmentName(filepath.Base(s)); first == 2 {
			victim = s
		}
	}
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Recover(dir)
	if err == nil {
		t.Fatal("mid-journal corruption went undetected")
	}
	if !strings.Contains(err.Error(), victim) || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("error lacks file/offset detail: %v", err)
	}
}

func TestHalfWrittenSegmentGarbage(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, 2, 0)
	// Simulate a half-written follow-on segment: allocated, filled with
	// garbage that never formed a record.
	if err := os.WriteFile(segmentPath(dir, 3), []byte("\x00\x00\x00garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastLSN != 2 || rec.TornBytes == 0 {
		t.Fatalf("garbage tail segment: %+v", rec)
	}

	// And an empty pre-allocated segment is simply skipped.
	j, rec2 := mustOpen(t, Options{Dir: dir})
	if rec2.LastLSN != 2 {
		t.Fatalf("reopen: %+v", rec2)
	}
	mustAppend(t, j, Record{Job: "after", State: "queued", Wire: testWire("after")})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLSNGapIsHardError(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, 3, 1)
	// Delete the middle segment: history has a hole.
	for _, s := range mustGlob(t, filepath.Join(dir, "wal-*.log")) {
		if first, _ := parseSegmentName(filepath.Base(s)); first == 2 {
			os.Remove(s)
		}
	}
	_, err := Recover(dir)
	if err == nil || !strings.Contains(err.Error(), "continuity") {
		t.Fatalf("gap not detected: %v", err)
	}
}

func mustGlob(t *testing.T, pattern string) []string {
	t.Helper()
	out, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCorruptSnapshotIsHardError(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir})
	mustAppend(t, j, Record{Job: "a", State: "queued", Wire: testWire("a")})
	mustAppend(t, j, Record{Job: "a", State: "completed"})
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	snaps := mustGlob(t, filepath.Join(dir, "snap-*.json"))
	if err := os.WriteFile(snaps[0], []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt snapshot accepted: %v", err)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy FsyncPolicy
	}{
		{"always", FsyncAlways},
		{"never", FsyncNever},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := telemetry.NewRegistry()
			j, _ := mustOpen(t, Options{Dir: dir, Fsync: tc.policy, Telemetry: reg})
			lsn := mustAppend(t, j, Record{Job: "a", State: "queued", Wire: testWire("a")})
			if err := j.Sync(lsn); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.LastLSN != 1 {
				t.Fatalf("%s: %+v", tc.name, rec)
			}
			if tc.policy == FsyncAlways && reg.Counter("grid_journal_fsyncs_total", "").Value() == 0 {
				t.Fatal("always policy never fsynced")
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, s := range []string{"always", "never"} {
		p, err := ParseFsyncPolicy(s)
		if err != nil || p.String() != s {
			t.Fatalf("%s: %v %v", s, p, err)
		}
	}
	for _, bad := range []string{"sometimes", "interval"} {
		if _, err := ParseFsyncPolicy(bad); err == nil {
			t.Fatalf("bad policy %q accepted", bad)
		}
	}
}

func TestTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, Telemetry: reg, SegmentBytes: 1})
	mustAppend(t, j, Record{Job: "a", State: "queued", Wire: testWire("a")})
	mustAppend(t, j, Record{Job: "a", State: "completed"})
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("grid_journal_appends_total", "").Value(); v != 2 {
		t.Fatalf("appends counter: %d", v)
	}
	if v := reg.Counter("grid_journal_rotations_total", "").Value(); v == 0 {
		t.Fatal("rotations counter never moved")
	}
	if v := reg.Counter("grid_journal_compactions_total", "").Value(); v != 1 {
		t.Fatalf("compactions counter: %d", v)
	}
}

func TestClosedJournalRefusesWrites(t *testing.T) {
	j, _ := mustOpen(t, Options{Dir: t.TempDir()})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(Record{Job: "x", State: "queued"}); err == nil {
		t.Fatal("append on closed journal succeeded")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// randomRecord draws one lifecycle record (no LSN) of the property tests'
// histories: a handful of jobs, every state, admission fields on half.
func randomRecord(rng *rand.Rand) Record {
	states := []string{"queued", "scheduled", "completed", "rejected", "drained"}
	r := Record{
		Job:   fmt.Sprintf("job-%d", rng.Intn(12)),
		State: states[rng.Intn(len(states))],
	}
	if rng.Intn(2) == 0 {
		r.Wire = testWire(r.Job)
		r.Strategy = "S1"
		r.Priority = rng.Intn(3)
	}
	if rng.Intn(5) == 0 {
		r.Reason = "because"
	}
	return r
}

// TestPropertyRoundTrip drives seeded random lifecycle histories —
// duplicate follow-up records, rotations, compactions and reopen cycles
// included — and checks the replayed fold matches an independently
// maintained model, with LSNs strictly continuous.
func TestPropertyRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			model := make(map[string]*JobState)
			var modelOrder []string
			var lsn uint64

			sessions := 2 + rng.Intn(3)
			for sess := 0; sess < sessions; sess++ {
				j, rec := mustOpen(t, Options{Dir: dir, SegmentBytes: int64(1 + rng.Intn(400))})
				if rec.LastLSN != lsn {
					t.Fatalf("session %d: LastLSN %d, want %d", sess, rec.LastLSN, lsn)
				}
				n := 5 + rng.Intn(40)
				for i := 0; i < n; i++ {
					r := randomRecord(rng)
					got := mustAppend(t, j, r)
					lsn++
					if got != lsn {
						t.Fatalf("lsn %d, want %d", got, lsn)
					}
					r.LSN = got
					foldRecord(model, &modelOrder, &r)
				}
				if rng.Intn(3) == 0 {
					if err := j.Compact(); err != nil {
						t.Fatal(err)
					}
					// Mirror compaction in the model: terminal jobs fold to
					// ledger entries, losing their wire payload.
					for _, js := range model {
						if terminal(js.State) {
							js.Wire = nil
						}
					}
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
			}

			rec, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.LastLSN != lsn {
				t.Fatalf("LastLSN %d, want %d", rec.LastLSN, lsn)
			}
			if len(rec.Jobs) != len(model) {
				t.Fatalf("job count %d, want %d", len(rec.Jobs), len(model))
			}
			for _, js := range rec.Jobs {
				want := model[js.Job]
				if want == nil {
					t.Fatalf("unexpected job %q", js.Job)
				}
				if js.State != want.State || js.Reason != want.Reason ||
					js.Strategy != want.Strategy || js.FirstLSN != want.FirstLSN {
					t.Fatalf("job %q: got %+v want %+v", js.Job, js, want)
				}
				// The final Recover does not compact, so wire presence must
				// match the model exactly (the model mirrors mid-run
				// compaction stripping above).
				if (js.Wire == nil) != (want.Wire == nil) {
					t.Fatalf("job %q: wire presence diverged: got %v want %v",
						js.Job, js.Wire != nil, want.Wire != nil)
				}
			}
		})
	}
}
