package estimate

import (
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/simtime"
)

func paperJob(t testing.TB) *dag.Job {
	t.Helper()
	b := dag.NewBuilder("fig2")
	b.Task("P1", 2, 20)
	b.Task("P2", 3, 30)
	b.Task("P3", 1, 10)
	b.Task("P4", 2, 20)
	b.Task("P5", 1, 10)
	b.Task("P6", 2, 20)
	return b.MustBuild()
}

func TestDeriveMatchesPaperTable(t *testing.T) {
	// §3's table: Ti1 = {2,3,1,2,1,2}, Ti2 = 2×, Ti3 = 3×, Ti4 = 4×,
	// V = {20,30,10,20,10,20}.
	job := paperJob(t)
	tab := Derive(job)
	wantT1 := []simtime.Time{2, 3, 1, 2, 1, 2}
	wantV := []int64{20, 30, 10, 20, 10, 20}
	for i := 0; i < job.NumTasks(); i++ {
		id := dag.TaskID(i)
		for k := resource.Tier(1); k <= resource.NumTiers; k++ {
			want := wantT1[i] * simtime.Time(k)
			if got := tab.Time(id, k); got != want {
				t.Errorf("T_%d%d = %d, want %d", i+1, k, got, want)
			}
		}
		if got := tab.Volume(id); got != wantV[i] {
			t.Errorf("V_%d = %d, want %d", i+1, got, wantV[i])
		}
	}
}

func TestBestWorst(t *testing.T) {
	tab := Derive(paperJob(t))
	p2 := dag.TaskID(1)
	if tab.Best(p2) != 3 {
		t.Errorf("Best = %d, want 3", tab.Best(p2))
	}
}

func TestTimeClampsTier(t *testing.T) {
	tab := Derive(paperJob(t))
	if tab.Time(0, 0) != tab.Time(0, 1) {
		t.Error("tier < 1 not clamped")
	}
	if tab.Time(0, 99) != tab.Time(0, resource.NumTiers) {
		t.Error("tier > NumTiers not clamped")
	}
}

func TestTimeOnNode(t *testing.T) {
	tab := Derive(paperJob(t))
	fast := resource.NewNode(0, "f", 1.0, 1, "d")
	slow := resource.NewNode(1, "s", 0.33, 1, "d")
	if got := tab.TimeOnNode(0, fast); got != 2 {
		t.Errorf("fast estimate = %d, want 2", got)
	}
	if got := tab.TimeOnNode(0, slow); got != 6 { // tier 3 → 3×2
		t.Errorf("slow estimate = %d, want 6", got)
	}
}

// TestPanicsOnMissingRow: a task the job does not have has no row; reading
// one is a bug and panics.
func TestPanicsOnMissingRow(t *testing.T) {
	tab := Derive(paperJob(t)) // tasks 0..5
	for _, fn := range []func(){
		func() { tab.Time(7, 1) },
		func() { tab.Volume(7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("missing-row access did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestQuickDeriveMonotone(t *testing.T) {
	// For any base time, derived estimates are positive and non-decreasing
	// in tier, and the tier-1 estimate equals the base.
	f := func(base uint16) bool {
		bt := simtime.Time(base%500) + 1
		b := dag.NewBuilder("q")
		b.Task("T", bt, 5)
		job := b.MustBuild()
		tab := Derive(job)
		if tab.Time(0, 1) != bt {
			return false
		}
		for k := resource.Tier(2); k <= resource.NumTiers; k++ {
			if tab.Time(0, k) < tab.Time(0, k-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
