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
	if tab.Best(p2) != 3 || tab.Worst(p2) != 12 {
		t.Errorf("Best/Worst = %d/%d, want 3/12", tab.Best(p2), tab.Worst(p2))
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

func TestSetRowValidation(t *testing.T) {
	tab := New()
	bad := []Row{
		{Times: [resource.NumTiers]simtime.Time{0, 1, 2, 3}, Volume: 1},
		{Times: [resource.NumTiers]simtime.Time{4, 3, 5, 6}, Volume: 1},
		{Times: [resource.NumTiers]simtime.Time{1, 2, 3, 4}, Volume: -1},
	}
	for i, row := range bad {
		if err := tab.SetRow(0, row); err == nil {
			t.Errorf("bad row %d accepted", i)
		}
	}
	good := Row{Times: [resource.NumTiers]simtime.Time{2, 2, 5, 5}, Volume: 0}
	if err := tab.SetRow(0, good); err != nil {
		t.Errorf("plateau row rejected: %v", err)
	}
	if !tab.Has(0) || tab.Has(1) {
		t.Error("Has is wrong")
	}
}

func TestCoversJob(t *testing.T) {
	job := paperJob(t)
	tab := Derive(job)
	if err := tab.CoversJob(job); err != nil {
		t.Errorf("derived table does not cover its job: %v", err)
	}
	partial := New()
	if err := partial.CoversJob(job); err == nil {
		t.Error("empty table claims to cover job")
	}
}

func TestPanicsOnMissingRow(t *testing.T) {
	tab := New()
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

// TestSparseRows: rows live in a slice indexed by TaskID, and a table
// assembled by hand may set them in any order and leave gaps. A gap is a
// missing row — Has is false, CoversJob names it, access panics — exactly
// as when rows were map entries.
func TestSparseRows(t *testing.T) {
	row := func(base simtime.Time) Row {
		return Row{Times: [resource.NumTiers]simtime.Time{base, 2 * base, 3 * base, 4 * base}, Volume: int64(base)}
	}
	tab := New()
	for _, id := range []dag.TaskID{5, 0, 3} {
		if err := tab.SetRow(id, row(simtime.Time(id)+1)); err != nil {
			t.Fatal(err)
		}
	}
	for id := dag.TaskID(-1); id <= 7; id++ {
		want := id == 0 || id == 3 || id == 5
		if tab.Has(id) != want {
			t.Errorf("Has(%d) = %v, want %v", id, !want, want)
		}
		if !want {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Time(%d) on a missing row did not panic", id)
					}
				}()
				tab.Time(id, 1)
			}()
		}
	}
	if tab.Time(5, 2) != 12 || tab.Volume(3) != 4 || tab.Best(0) != 1 {
		t.Errorf("sparse rows read back wrong: T(5,2)=%d V(3)=%d Best(0)=%d", tab.Time(5, 2), tab.Volume(3), tab.Best(0))
	}
	if err := tab.SetRow(5, row(9)); err != nil || tab.Time(5, 1) != 9 {
		t.Errorf("replacing a row: err %v, T(5,1) = %d", err, tab.Time(5, 1))
	}
	if err := tab.SetRow(-1, row(1)); err == nil {
		t.Error("negative task ID accepted")
	}
	if err := tab.SetRow(9, Row{}); err == nil || tab.Has(9) {
		t.Error("an invalid row was installed")
	}

	job := paperJob(t) // tasks 0..5
	if err := tab.CoversJob(job); err == nil {
		t.Error("table with gaps at 1, 2 and 4 claims to cover the job")
	}
	for _, id := range []dag.TaskID{1, 2, 4} {
		if err := tab.SetRow(id, row(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.CoversJob(job); err != nil {
		t.Errorf("filled table does not cover the job: %v", err)
	}
}

// TestDerivedFrom: only an untouched Derive(job) counts as derived from
// that job; the marker is what lets repair memos treat derived tables as
// interchangeable.
func TestDerivedFrom(t *testing.T) {
	job := paperJob(t)
	tab := Derive(job)
	if !tab.DerivedFrom(job) {
		t.Error("Derive(job) is not derived from job")
	}
	if tab.DerivedFrom(paperJob(t)) || New().DerivedFrom(job) {
		t.Error("a table claims derivation from a job it was not derived from")
	}
	if err := tab.SetRow(0, Row{Times: [resource.NumTiers]simtime.Time{2, 4, 6, 8}, Volume: 20}); err != nil {
		t.Fatal(err)
	}
	if tab.DerivedFrom(job) {
		t.Error("a table touched by SetRow still claims to be derived")
	}
}
