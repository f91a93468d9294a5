package journal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// gate is an fsync hook: its first call blocks until release, after telling
// entered, and then fails with err if err is set; every other call syncs
// the file for real. calls counts them.
type gate struct {
	entered, release chan struct{}
	once             sync.Once
	calls            atomic.Int64
	err              error
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) fsync(f *os.File) error {
	if g.calls.Add(1) == 1 {
		close(g.entered)
		<-g.release
		if g.err != nil {
			return g.err
		}
	}
	return f.Sync()
}

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

// openGated opens a journal whose fsyncs go through a new gate.
func openGated(t *testing.T, opts Options) (*Journal, *gate) {
	t.Helper()
	j, _ := mustOpen(t, opts)
	g := newGate()
	j.fsync = g.fsync
	t.Cleanup(func() {
		g.open()
		j.Close()
	})
	return j, g
}

// syncAsync runs Sync(lsn) on its own goroutine; the channel carries its
// error.
func syncAsync(j *Journal, lsn uint64) <-chan error {
	done := make(chan error, 1)
	go func() { done <- j.Sync(lsn) }()
	return done
}

// waitErr fails the test unless done carries nil within 10 s.
func waitErr(t *testing.T, done <-chan error, what string) {
	t.Helper()
	if err := recvErr(t, done, what); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// recvErr returns the error done carries, failing the test if none comes
// within 10 s.
func recvErr(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned", what)
		return nil
	}
}

// TestSyncLetsAppendsThrough: a Sync leads its fsync with the journal's
// lock released, so an Append returns while the fsync is blocked, and the
// blocked Sync returns once the fsync does.
func TestSyncLetsAppendsThrough(t *testing.T) {
	j, g := openGated(t, Options{Dir: t.TempDir()})
	lsn := mustAppend(t, j, Record{Job: "a", State: "queued", Wire: testWire("a")})
	done := syncAsync(j, lsn)
	<-g.entered

	appended := make(chan uint64, 1)
	go func() {
		n, err := j.Append(Record{Job: "b", State: "queued", Wire: testWire("b")})
		if err != nil {
			t.Error(err)
		}
		appended <- n
	}()
	select {
	case n := <-appended:
		if n != lsn+1 {
			t.Fatalf("Append returned LSN %d, want %d", n, lsn+1)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Append waited for a blocked Sync")
	}
	select {
	case err := <-done:
		t.Fatalf("Sync returned (%v) while its fsync was blocked", err)
	default:
	}
	g.open()
	waitErr(t, done, "Sync")
}

// TestSyncCallersShareFsyncs: callers that sync while an fsync is blocked
// wait for it and share one more: once the block lifts, all of them are
// released by at most two fsyncs, the blocked one included.
func TestSyncCallersShareFsyncs(t *testing.T) {
	const callers = 16
	reg := telemetry.NewRegistry()
	j, g := openGated(t, Options{Dir: t.TempDir(), Telemetry: reg})
	first := syncAsync(j, mustAppend(t, j, Record{Job: "lead", State: "queued"}))
	<-g.entered

	var dones []<-chan error
	for i := range callers {
		lsn := mustAppend(t, j, Record{Job: "job", State: "queued", Priority: i + 1})
		dones = append(dones, syncAsync(j, lsn))
	}
	time.Sleep(20 * time.Millisecond) // let the callers reach Sync
	g.open()
	waitErr(t, first, "leading Sync")
	for i, done := range dones {
		waitErr(t, done, fmt.Sprintf("Sync of caller %d", i))
	}
	if n := g.calls.Load(); n > 2 {
		t.Fatalf("%d callers took %d fsyncs, want at most 2", callers+1, n)
	}
	if n := reg.Counter("grid_journal_fsyncs_total", "").Value(); n != uint64(g.calls.Load()) {
		t.Fatalf("grid_journal_fsyncs_total %d, fsyncs made %d", n, g.calls.Load())
	}
}

// TestSyncRacingSealReturnsOnceDurable: a Sync whose fsync is under way
// when a rotation, a compaction or Close seals the segment returns nil: the
// seal synced the records before closing the file the Sync was syncing.
func TestSyncRacingSealReturnsOnceDurable(t *testing.T) {
	for _, tc := range []struct {
		name string
		seal func(t *testing.T, j *Journal)
	}{
		{"rotation", func(t *testing.T, j *Journal) {
			mustAppend(t, j, Record{Job: "big", State: "queued", Wire: testWire("big")})
		}},
		{"compaction", func(t *testing.T, j *Journal) {
			if err := j.Compact(); err != nil {
				t.Fatal(err)
			}
		}},
		{"close", func(t *testing.T, j *Journal) {
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, g := openGated(t, Options{Dir: dir, SegmentBytes: 100})
			lsn := mustAppend(t, j, Record{Job: "a", State: "queued"})
			done := syncAsync(j, lsn)
			<-g.entered
			segs := len(mustGlob(t, dir+"/wal-*.log"))
			tc.seal(t, j)
			if tc.name == "rotation" && len(mustGlob(t, dir+"/wal-*.log")) == segs {
				t.Fatal("the append did not rotate the segment")
			}
			g.open()
			waitErr(t, done, "Sync racing the "+tc.name)
			if rec, err := Recover(dir); err != nil || rec.LastLSN < lsn {
				t.Fatalf("recovered %+v, %v; want LSN %d on disk", rec, err, lsn)
			}
		})
	}
}

// TestSyncUnderFsyncNeverMakesNoFsync: under FsyncNever, Sync returns at
// once and makes no fsync.
func TestSyncUnderFsyncNeverMakesNoFsync(t *testing.T) {
	reg := telemetry.NewRegistry()
	j, g := openGated(t, Options{Dir: t.TempDir(), Fsync: FsyncNever, Telemetry: reg})
	g.open()
	for i := range 3 {
		lsn := mustAppend(t, j, Record{Job: "a", State: "queued", Priority: i + 1})
		if err := j.Sync(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if n := g.calls.Load(); n != 0 {
		t.Fatalf("Sync made %d fsyncs under FsyncNever", n)
	}
	if n := reg.Counter("grid_journal_fsyncs_total", "").Value(); n != 0 {
		t.Fatalf("grid_journal_fsyncs_total %d under FsyncNever", n)
	}
}

// TestFailedFsyncIsSticky: when an fsync fails while callers wait on it,
// each of them gets its error, and so does every later Sync and Append.
// None of them leads a fresh fsync, which could succeed without writing the
// records the failed one lost.
func TestFailedFsyncIsSticky(t *testing.T) {
	const callers = 16
	reg := telemetry.NewRegistry()
	j, g := openGated(t, Options{Dir: t.TempDir(), Telemetry: reg})
	g.err = errors.New("injected write-back error")
	first := syncAsync(j, mustAppend(t, j, Record{Job: "lead", State: "queued"}))
	<-g.entered

	var dones []<-chan error
	for i := range callers {
		lsn := mustAppend(t, j, Record{Job: "job", State: "queued", Priority: i + 1})
		dones = append(dones, syncAsync(j, lsn))
	}
	time.Sleep(20 * time.Millisecond) // let the callers reach Sync
	g.open()
	if err := recvErr(t, first, "leading Sync"); !errors.Is(err, g.err) {
		t.Fatalf("leading Sync returned %v, want the fsync's error", err)
	}
	for i, done := range dones {
		if err := recvErr(t, done, fmt.Sprintf("Sync of caller %d", i)); !errors.Is(err, g.err) {
			t.Fatalf("Sync of caller %d returned %v, want the fsync's error", i, err)
		}
	}
	if _, err := j.Append(Record{Job: "late", State: "queued"}); !errors.Is(err, g.err) {
		t.Fatalf("Append after the failed fsync returned %v, want its error", err)
	}
	if err := j.Sync(0); !errors.Is(err, g.err) {
		t.Fatalf("Sync after the failed fsync returned %v, want its error", err)
	}
	if err := j.Compact(); !errors.Is(err, g.err) {
		t.Fatalf("Compact after the failed fsync returned %v, want its error", err)
	}
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("%d fsyncs; want only the one that failed", n)
	}
	if n := reg.Counter("grid_journal_fsyncs_total", "").Value(); n != 0 {
		t.Fatalf("grid_journal_fsyncs_total %d counts a failed fsync", n)
	}
}

// TestFailedCallsCountOnce: grid_journal_failures_total counts each Append
// and Sync call that fails once, under its op, and none that succeeds; once
// an fsync has failed, each call its sticky error refuses counts once. A
// refused compaction counts under its own op only.
func TestFailedCallsCountOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	j, g := openGated(t, Options{Dir: t.TempDir(), Telemetry: reg})
	g.err = errors.New("injected write-back error")
	failures := func(op string) uint64 {
		return reg.Counter("grid_journal_failures_total", "", telemetry.L("op", op)).Value()
	}
	want := func(what string, appends, syncs uint64) {
		t.Helper()
		if a, s := failures("append"), failures("sync"); a != appends || s != syncs {
			t.Fatalf("after %s: append failures %d, sync failures %d; want %d, %d", what, a, s, appends, syncs)
		}
	}
	lsn := mustAppend(t, j, Record{Job: "a", State: "queued"})
	want("a good append", 0, 0)
	if err := j.Sync(lsn + 1); err == nil {
		t.Fatal("Sync of an unwritten LSN succeeded")
	}
	want("a sync of an unwritten LSN", 0, 1)
	done := syncAsync(j, lsn)
	<-g.entered
	g.open()
	if err := recvErr(t, done, "the failing Sync"); !errors.Is(err, g.err) {
		t.Fatalf("the failing Sync returned %v, want the fsync's error", err)
	}
	want("the failed fsync", 0, 2)
	for i := uint64(1); i <= 3; i++ {
		if _, err := j.Append(Record{Job: "b", State: "queued"}); !errors.Is(err, g.err) {
			t.Fatalf("Append after the failed fsync returned %v, want its error", err)
		}
		want(fmt.Sprintf("refused append %d", i), i, 1+i)
		if err := j.Sync(lsn); !errors.Is(err, g.err) {
			t.Fatalf("Sync after the failed fsync returned %v, want its error", err)
		}
		want(fmt.Sprintf("refused sync %d", i), i, 2+i)
	}
	if err := j.Compact(); !errors.Is(err, g.err) {
		t.Fatalf("Compact after the failed fsync returned %v, want its error", err)
	}
	want("a refused compaction", 3, 5)
	if c, r := failures("compact"), failures("rotate"); c != 1 || r != 0 {
		t.Fatalf("compact failures %d, rotate failures %d; want 1, 0", c, r)
	}
}
