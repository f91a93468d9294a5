// Package journal is an append-only, segmented write-ahead log for the
// scheduler service's job lifecycle. Every lifecycle transition that
// recovery reads — the accept with the job's wire form, a router's binding
// of the job to a shard, the terminal state — is one JSONL record with a
// per-record CRC32 and a monotonically increasing LSN. Append writes a
// record and Sync makes it durable; the code that acknowledges a transition
// syncs its record first, so a SIGKILL, OOM kill or power loss can never
// lose an accepted job. Transitions a restart would not act on (a shard's
// "scheduled": recovery re-enqueues the job either way) are not records:
// each would cost an fsync and change nothing. A record is encoded once,
// straight into a buffer the Journal keeps, and written with one Write; an
// append allocates nothing. Concurrent callers share fsyncs: a Sync that
// finds none under way leads one, with the journal's lock released, and the
// Syncs that arrive meanwhile share the next. A tier that journals its moves
// under its own lock commits them through a Ledger: append under the lock,
// sync after releasing it, and only then answer or announce.
//
// # On-disk layout
//
// A journal directory holds segment files and snapshot files:
//
//	wal-%016x.log   — JSONL records; the name is the segment's first LSN
//	snap-%016x.json — folded per-job state through the named LSN
//
// Each record line is the envelope {"crc":C,"rec":R} where C is the IEEE
// CRC32 of the exact bytes of R. Segments rotate at Options.SegmentBytes.
// Compaction folds the per-job state (terminal jobs lose their jobio wire
// payload, keeping only the ledger entry that makes the duplicate-submit
// guard durable) into a snapshot written atomically via atomicfile, then
// deletes the dead segments — so replay cost is bounded by the live job
// count plus the records since the last compaction, not by history.
//
// # Recovery semantics
//
// Replay loads the newest snapshot, then applies segment records in LSN
// order with strict +1 continuity. An invalid record (bad JSON, CRC
// mismatch, missing trailing newline) in the *final* segment is a torn
// tail: everything from it onward is discarded and, when opening for
// write, truncated away. An invalid record anywhere else is hard
// corruption and fails recovery with an error naming the file and byte
// offset — silent data loss is never an option in the middle of the log.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/atomicfile"
	"repro/internal/jobio"
	"repro/internal/telemetry"
)

// FsyncPolicy selects whether Sync puts records on stable storage.
type FsyncPolicy int

const (
	// FsyncAlways makes Sync return only once the records it names are on
	// disk: an acknowledged record is durable. The default, and the only
	// policy under which the service's exactly-once guarantee covers power
	// loss.
	FsyncAlways FsyncPolicy = iota
	// FsyncNever leaves syncing to the OS page cache: Sync returns at once.
	// Fastest; survives process death but not power loss.
	FsyncNever
)

// ParseFsyncPolicy parses the -fsync flag values "always" and "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always|never)", s)
}

// String renders the flag form.
func (p FsyncPolicy) String() string {
	if p == FsyncNever {
		return "never"
	}
	return "always"
}

// Options configures a journal.
type Options struct {
	// Dir is the journal directory; created if missing. Required.
	Dir string
	// Fsync is the durability policy. Default FsyncAlways.
	Fsync FsyncPolicy
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Default 4 MiB.
	SegmentBytes int64
	// CompactEvery triggers a compaction once this many jobs, and at least
	// half as many as the journal holds, have newly reached a terminal
	// state since the last one. A snapshot rewrites every job the journal
	// holds, terminal ones included, so the second bound keeps its cost
	// within two entries per terminal job however long the history. 0
	// means compaction only happens when Compact is called explicitly (the
	// service compacts after recovery and on drain).
	CompactEvery int
	// IsTerminal classifies job states for compaction: terminal jobs keep
	// only their ledger entry in snapshots, live jobs keep the full wire
	// form. nil treats every state as live.
	IsTerminal func(state string) bool
	// Telemetry keeps the append/fsync/rotation/compaction counters. nil
	// keeps them in a private registry. A registry
	// serves one journal: two would share one tally.
	Telemetry *telemetry.Registry
}

// terminal reports whether state is terminal; with no IsTerminal, none is.
func (o Options) terminal(state string) bool {
	return o.IsTerminal != nil && o.IsTerminal(state)
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return 4 << 20
	}
	return o.SegmentBytes
}

// Record is one job lifecycle transition. Wire, Strategy and Priority are
// set on admission records (state "queued") so recovery can rebuild and
// re-enqueue the job. A rejection at admission (infeasible) carries
// Strategy, Priority and its Epoch too: the journal holds no accept to fold
// them from. Later transitions carry the state change and the fields it
// changes (a revocation its Epoch; a router move its Shard and Epoch).
type Record struct {
	LSN      uint64     `json:"lsn"`
	Job      string     `json:"job"`
	State    string     `json:"state"`
	Reason   string     `json:"reason,omitempty"`
	Strategy string     `json:"strategy,omitempty"`
	Priority int        `json:"priority,omitempty"`
	Wire     *jobio.Job `json:"wire,omitempty"`
	// Shard names the metascheduler shard a federated router has bound the
	// job to ("" outside federation). It tracks the newest record that sets
	// it, so recovery knows which shard may still own an in-doubt handoff.
	Shard string `json:"shard,omitempty"`
	// Epoch is a federated router's reallocation round for the job (0
	// outside federation). It rises by one each time a confirmed
	// revocation voids a binding, and persisting it keeps re-handoffs
	// monotonically above every tombstone the job left behind.
	Epoch int `json:"epoch,omitempty"`
}

// JobState is the folded, latest-record-wins view of one job, as stored in
// snapshots and returned by recovery.
type JobState struct {
	Job      string     `json:"job"`
	State    string     `json:"state"`
	Reason   string     `json:"reason,omitempty"`
	Strategy string     `json:"strategy,omitempty"`
	Priority int        `json:"priority,omitempty"`
	Wire     *jobio.Job `json:"wire,omitempty"`
	Shard    string     `json:"shard,omitempty"`
	Epoch    int        `json:"epoch,omitempty"`
	FirstLSN uint64     `json:"firstLSN"`
}

// Stats is a point-in-time snapshot of what no grid_journal_* series
// carries: the journal's positions and the size of its folded ledger.
type Stats struct {
	NextLSN     uint64 `json:"nextLSN"`
	SnapshotLSN uint64 `json:"snapshotLSN"`
	Jobs        int    `json:"jobs"`
	Live        int    `json:"live"`
}

// Journal is the write handle. Safe for concurrent use.
type Journal struct {
	opts Options

	mu   sync.Mutex
	line lineEncoder
	// rec is the record being appended. It lives here because the encoder
	// takes it behind an interface: a pointer into the Journal costs no
	// allocation, a pointer to Append's argument would cost one per record.
	rec           Record
	f             *os.File
	segBytes      int64
	nextLSN       uint64
	snapLSN       uint64
	state         map[string]*JobState
	order         []string // job IDs by first-seen LSN
	live          int      // jobs in state whose State is not terminal
	terminalSince int
	closed        bool

	// Group sync. synced is the newest LSN known to be on disk; syncing is
	// set while a Sync leads an fsync with mu released, and the Syncs that
	// arrive meanwhile wait on synchronized for it to finish.
	synced       uint64
	syncing      bool
	synchronized sync.Cond            // L is &mu
	fsync        func(*os.File) error // (*os.File).Sync; tests substitute it
	syncErr      error                // the first failed fsync's; see failLocked

	appends, fsyncs, rotations, compactions *telemetry.Counter
	appendFailures, syncFailures            *telemetry.Counter
	rotateFailures, compactFailures         *telemetry.Counter
}

// Open recovers the journal directory (truncating a torn tail) and opens
// it for appending. The returned Recovery is the folded job state the
// caller should restore before accepting new work.
func Open(opts Options) (*Journal, *Recovery, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("journal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	rec, err := Recover(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	if rec.tornPath != "" {
		// Cut the torn tail so the next segment scan sees only valid
		// records; the file itself is synced before we append past it.
		if err := truncateFile(rec.tornPath, rec.tornOffset); err != nil {
			return nil, nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}

	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	j := &Journal{
		opts:            opts,
		nextLSN:         rec.LastLSN + 1,
		snapLSN:         rec.SnapshotLSN,
		synced:          rec.LastLSN,
		fsync:           (*os.File).Sync,
		state:           make(map[string]*JobState, len(rec.Jobs)),
		appends:         reg.Counter("grid_journal_appends_total", "journal records appended"),
		fsyncs:          reg.Counter("grid_journal_fsyncs_total", "journal fsync calls"),
		rotations:       reg.Counter("grid_journal_rotations_total", "journal segment rotations"),
		compactions:     reg.Counter("grid_journal_compactions_total", "journal compactions"),
		appendFailures:  reg.Counter("grid_journal_failures_total", failuresHelp, telemetry.L("op", "append")),
		syncFailures:    reg.Counter("grid_journal_failures_total", failuresHelp, telemetry.L("op", "sync")),
		rotateFailures:  reg.Counter("grid_journal_failures_total", failuresHelp, telemetry.L("op", "rotate")),
		compactFailures: reg.Counter("grid_journal_failures_total", failuresHelp, telemetry.L("op", "compact")),
	}
	j.synchronized.L = &j.mu
	for _, js := range rec.Jobs {
		cp := *js
		j.state[js.Job] = &cp
		j.order = append(j.order, js.Job)
		if !opts.terminal(js.State) {
			j.live++
		}
	}
	if err := j.openSegmentLocked(); err != nil {
		return nil, nil, err
	}
	return j, rec, nil
}

const failuresHelp = "journal appends, syncs, rotations and compactions that failed"

// countFailed counts a failed call in c: deferred with the call's named
// error result.
func countFailed(err *error, c *telemetry.Counter) {
	if *err != nil {
		c.Inc()
	}
}

func truncateFile(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// openSegmentLocked opens the active segment named after nextLSN. The name
// can already exist in exactly one benign case — a torn tail truncated the
// whole segment away — in which case appending to the now-empty file is
// precisely right, so O_APPEND without O_EXCL.
func (j *Journal) openSegmentLocked() error {
	path := segmentPath(j.opts.Dir, j.nextLSN)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: stat segment: %w", err)
	}
	if err := atomicfile.SyncDir(j.opts.Dir); err != nil {
		f.Close()
		return err
	}
	j.f = f
	j.segBytes = info.Size()
	return nil
}

func segmentPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", first))
}

func snapshotPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.json", lsn))
}

// Append writes one record and assigns its LSN, which it returns. The record
// is durable once Sync(lsn) returns: Append itself does not sync, so a
// caller can append under its own lock and sync after releasing it. A
// failed call counts in grid_journal_failures_total{op="append"}.
func (j *Journal) Append(rec Record) (_ uint64, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	defer countFailed(&err, j.appendFailures)
	if j.closed {
		return 0, fmt.Errorf("journal: closed")
	}
	if j.syncErr != nil {
		return 0, j.syncErr
	}
	rec.LSN = j.nextLSN
	j.rec = rec
	line, err := j.line.encode(&j.rec)
	if err != nil {
		return 0, err
	}
	if _, err := j.f.Write(line); err != nil {
		return 0, fmt.Errorf("journal: append: %w", err)
	}
	j.nextLSN++
	j.segBytes += int64(len(line))
	j.appends.Inc()
	js, known := j.state[rec.Job]
	wasTerminal := known && j.opts.terminal(js.State)
	foldRecord(j.state, &j.order, &j.rec)
	isTerminal := j.opts.terminal(rec.State)
	switch {
	case !isTerminal && (!known || wasTerminal):
		j.live++ // a new job, or a new life in a tombstone
	case isTerminal && known && !wasTerminal:
		j.live--
	}
	becameTerminal := isTerminal && !wasTerminal
	if becameTerminal {
		j.terminalSince++
	}

	// The record is written. A rotation or compaction that fails leaves the
	// journal appending to its active segment, and a later append tries
	// again, so neither fails this one; grid_journal_failures_total counts
	// each.
	if j.segBytes >= j.opts.segmentBytes() {
		if err := j.rotateLocked(); err != nil {
			j.rotateFailures.Inc()
		}
	}
	if n := j.opts.CompactEvery; becameTerminal && n > 0 && j.terminalSince >= max(n, len(j.order)/2) {
		_ = j.compactLocked()
	}
	return rec.LSN, nil
}

// Sync returns once every record up to lsn is on disk. A caller that finds
// no fsync under way leads one of the active segment, with j.mu released:
// it covers every record written by then. The callers that arrive while it
// runs wait, and share the next. Rotation, compaction and Close sync under
// j.mu and advance the same mark, so a Sync that races them returns once
// they have made its records durable. Under FsyncNever, or on a nil
// Journal, Sync returns at once. Once an fsync has failed, every Sync
// returns its error (see failLocked). A failed call counts in
// grid_journal_failures_total{op="sync"}.
func (j *Journal) Sync(lsn uint64) (err error) {
	if j == nil || j.opts.Fsync == FsyncNever {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	defer countFailed(&err, j.syncFailures)
	for j.syncErr == nil && j.synced < lsn {
		switch {
		case lsn >= j.nextLSN:
			return fmt.Errorf("journal: sync of LSN %d, which is not written", lsn)
		case j.closed:
			return fmt.Errorf("journal: closed")
		case j.syncing:
			j.synchronized.Wait()
		default:
			j.leadSyncLocked()
		}
	}
	return j.syncErr
}

// leadSyncLocked fsyncs the active segment with j.mu released and advances
// the synced mark to the last record written before it started. A segment
// that rotation, compaction or Close sealed meanwhile was synced by them
// before they closed it.
func (j *Journal) leadSyncLocked() {
	f, upto := j.f, j.nextLSN-1
	j.syncing = true
	j.mu.Unlock()
	err := j.fsync(f)
	j.mu.Lock()
	j.syncing = false
	j.synchronized.Broadcast()
	switch {
	case err == nil:
		j.fsyncs.Inc()
		j.synced = max(j.synced, upto)
	case errors.Is(err, os.ErrClosed) && j.synced >= upto:
	default:
		j.failLocked(err)
	}
}

// syncLocked fsyncs the active segment under j.mu: rotation, compaction and
// Close seal what they sync.
func (j *Journal) syncLocked() error {
	if j.syncErr != nil {
		return j.syncErr
	}
	if err := j.fsync(j.f); err != nil {
		return j.failLocked(err)
	}
	j.fsyncs.Inc()
	j.synced = j.nextLSN - 1
	return nil
}

// failLocked keeps err, a failed fsync, as the journal's for good, and
// returns it. The fsync may have lost any record written before it began,
// and a later fsync of the same file can succeed without writing them
// (Linux reports a write-back error once per open file), so no later
// Append, Sync, rotation or compaction succeeds: a caller waiting on the
// failed fsync, or one that comes after, never hears that a lost record is
// durable. Reopening the journal recovers what reached the disk.
func (j *Journal) failLocked(err error) error {
	j.syncErr = fmt.Errorf("journal: fsync: %w", err)
	return j.syncErr
}

// rotateLocked seals the active segment and starts a new one named after
// the next LSN to be assigned.
func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.swapSegmentLocked(); err != nil {
		return err
	}
	j.rotations.Inc()
	return nil
}

// swapSegmentLocked opens a segment named after the next LSN and only then
// closes the active one, which the caller has synced: if the open fails,
// the active segment stays open and appends go on into it.
func (j *Journal) swapSegmentLocked() error {
	sealed := j.f
	if err := j.openSegmentLocked(); err != nil {
		return err
	}
	if err := sealed.Close(); err != nil {
		return fmt.Errorf("journal: close segment: %w", err)
	}
	return nil
}

// Compact folds the current per-job state into a snapshot and deletes the
// segments (and older snapshots) it supersedes. Terminal jobs are stripped
// to their ledger entry — ID, state, reason — which is all the durable
// duplicate-submit guard needs; live jobs keep the full wire form so
// recovery can re-enqueue them.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	return j.compactLocked()
}

// compactLocked is Compact under j.mu. A failure counts in
// grid_journal_failures_total{op="compact"}.
func (j *Journal) compactLocked() (err error) {
	defer countFailed(&err, j.compactFailures)
	// Sync the active segment, then write the snapshot with the segment
	// still open: every record on disk is covered by the snapshot, and a
	// snapshot that cannot be written leaves the journal appending where it
	// was. Segments swap only once the snapshot is durable.
	if err := j.syncLocked(); err != nil {
		return err
	}
	snapLSN := j.nextLSN - 1

	snap := snapshotFile{LSN: snapLSN, Jobs: make([]*JobState, 0, len(j.order))}
	for _, id := range j.order {
		js := j.state[id]
		if j.opts.terminal(js.State) {
			js.Wire = nil // fold: terminal jobs keep only the ledger entry
		}
		snap.Jobs = append(snap.Jobs, js)
	}
	if err := atomicfile.WriteFile(snapshotPath(j.opts.Dir, snapLSN), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(&snap)
	}); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := j.swapSegmentLocked(); err != nil {
		return err
	}
	j.snapLSN = snapLSN
	j.terminalSince = 0
	j.compactions.Inc()

	// Everything sealed is now dead: every segment (all records <=
	// snapLSN) and every older snapshot. A crash between these removes is
	// safe — replay skips records at or below the snapshot LSN — and a
	// file left behind goes at the next compaction.
	names, err := os.ReadDir(j.opts.Dir)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	for _, e := range names {
		name := e.Name()
		if first, ok := parseSegmentName(name); ok && first <= snapLSN {
			os.Remove(filepath.Join(j.opts.Dir, name))
		} else if lsn, ok := parseSnapshotName(name); ok && lsn < snapLSN {
			os.Remove(filepath.Join(j.opts.Dir, name))
		}
	}
	return nil
}

// Close syncs and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	err := j.syncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.closed = true
	return err
}

// Stats returns a snapshot of journal activity. It walks no jobs: Live is
// the count Append keeps, so a health probe does not stall appends.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		NextLSN:     j.nextLSN,
		SnapshotLSN: j.snapLSN,
		Jobs:        len(j.state),
		Live:        j.live,
	}
}

// envelope is the on-disk line form: CRC over the exact bytes of Rec.
type envelope struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// snapshotFile is the on-disk compaction snapshot.
type snapshotFile struct {
	LSN  uint64      `json:"lsn"`
	Jobs []*JobState `json:"jobs"`
}

// The envelope around a record's JSON: {"crc":C,"rec":R} and a newline. C is
// a uint32 in decimal, so the part before R is at most linePrefixMax bytes.
const (
	lineCRCKey    = `{"crc":`
	lineRecKey    = `,"rec":`
	linePrefixMax = len(lineCRCKey) + 10 + len(lineRecKey)
)

// lineEncoder renders records as envelope lines, each encoded once into a
// buffer it keeps. A Journal owns one and uses it under j.mu. The zero value
// is ready to use.
type lineEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder // writes into buf; made on first use
}

// encode renders rec as its envelope line, newline included. The bytes are
// valid until the next call. The record's JSON goes into the buffer behind
// room for the longest prefix; the prefix, whose CRC is only known once the
// record is encoded, is then written right-aligned into that room, so the
// line is contiguous without the record's bytes ever being copied.
func (e *lineEncoder) encode(rec *Record) ([]byte, error) {
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.buf)
	}
	e.buf.Reset()
	var room [linePrefixMax]byte
	e.buf.Write(room[:])
	if err := e.enc.Encode(rec); err != nil {
		return nil, fmt.Errorf("journal: encode: %w", err)
	}
	b := e.buf.Bytes()
	end := len(b) - 1 // Encode ends the value with a newline
	prefix := append(room[:0], lineCRCKey...)
	prefix = strconv.AppendUint(prefix, uint64(crc32.ChecksumIEEE(b[linePrefixMax:end])), 10)
	prefix = append(prefix, lineRecKey...)
	start := linePrefixMax - len(prefix)
	copy(b[start:], prefix)
	b[end] = '}'
	e.buf.WriteByte('\n')
	return e.buf.Bytes()[start:], nil
}

// decodeRecord parses and verifies one envelope line (sans newline).
func decodeRecord(line []byte) (*Record, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("bad envelope: %w", err)
	}
	if got := crc32.ChecksumIEEE(env.Rec); got != env.CRC {
		return nil, fmt.Errorf("crc mismatch: record says %08x, content is %08x", env.CRC, got)
	}
	var rec Record
	if err := json.Unmarshal(env.Rec, &rec); err != nil {
		return nil, fmt.Errorf("bad record: %w", err)
	}
	return &rec, nil
}

// foldRecord applies one record to the latest-wins state map. Admission
// fields (wire, strategy, priority) stick from the record that carries
// them; state and reason always track the newest record.
func foldRecord(state map[string]*JobState, order *[]string, rec *Record) {
	js, ok := state[rec.Job]
	if !ok {
		js = &JobState{Job: rec.Job, FirstLSN: rec.LSN}
		state[rec.Job] = js
		*order = append(*order, rec.Job)
	}
	js.State = rec.State
	js.Reason = rec.Reason
	if rec.Strategy != "" {
		js.Strategy = rec.Strategy
	}
	if rec.Priority != 0 {
		js.Priority = rec.Priority
	}
	if rec.Wire != nil {
		js.Wire = rec.Wire
	}
	if rec.Shard != "" {
		js.Shard = rec.Shard
	}
	if rec.Epoch != 0 {
		js.Epoch = rec.Epoch
	}
}
