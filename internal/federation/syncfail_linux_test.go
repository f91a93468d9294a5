package federation

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"testing"

	"repro/internal/service"
)

// failFsyncs makes every later fsync of the active segment in dir fail, as
// a disk that lost a write would: each descriptor open on the segment is
// replaced by one of /dev/null, which takes writes and refuses fsync. The
// journal then keeps the failure for good.
func failFsyncs(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment in %s: %v", dir, err)
	}
	sort.Strings(segs)
	active, err := filepath.EvalSymlinks(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	replaced := 0
	for _, e := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err != nil || target != active {
			continue
		}
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Dup3(int(null.Fd()), fd, syscall.O_CLOEXEC); err != nil {
			t.Fatal(err)
		}
		replaced++
	}
	if replaced == 0 {
		t.Fatalf("no descriptor is open on %s", active)
	}
}

// TestHandoffRefusedAfterAFailedSync: a shard whose answer's sync fails
// does not answer "accepted". Its accept, and an idle shard's outcome, may
// then be on no disk, so the handoff is refused as internal, which the
// router retries and in the end reallocates; a resent frame, a duplicate,
// is refused the same way, since a failed fsync is sticky. The member's
// handler and LocalShard share the answer.
func TestHandoffRefusedAfterAFailedSync(t *testing.T) {
	refused := func(t *testing.T, how string, res *HandoffResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted || res.Code != service.CodeInternal {
			t.Errorf("%s: answer %+v after a failed fsync, want refused as %s", how, res, service.CodeInternal)
		}
	}
	for _, tc := range []struct {
		name  string
		start bool
	}{{"busy", false}, {"idle", true}} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newCrashRig()
			svc, mark := rig.shard(t, t.TempDir(), tc.start)
			failFsyncs(t, mark.dir)
			h := &Handoff{Key: "j", Job: testJob("j", 60), Strategy: "S1"}
			res, err := rig.Handoff(context.Background(), h)
			refused(t, "the member's handler", res, err)
			res, err = rig.Handoff(context.Background(), h)
			refused(t, "the member's handler, resent", res, err)
			res, err = NewLocalShard("s0", svc).Handoff(context.Background(), h)
			refused(t, "LocalShard, resent", res, err)
		})
	}
}
