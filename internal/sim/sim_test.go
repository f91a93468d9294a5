package sim

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/simtime"
)

func TestRunsInTimeOrder(t *testing.T) {
	e := New()
	var got []int
	e.At(30, "c", func() { got = append(got, 3) })
	e.At(10, "a", func() { got = append(got, 1) })
	e.At(20, "b", func() { got = append(got, 2) })
	end := e.Run()
	if end != 30 {
		t.Errorf("final time = %d", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
}

func TestSameTickFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, "x", func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-tick order = %v", got)
		}
	}
}

func TestEventSchedulesEvent(t *testing.T) {
	e := New()
	var trace []simtime.Time
	e.At(1, "outer", func() {
		trace = append(trace, e.Now())
		e.After(4, "inner", func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 1 || trace[1] != 5 {
		t.Errorf("trace = %v", trace)
	}
}

func TestScheduleAtNowRunsThisTick(t *testing.T) {
	e := New()
	ran := false
	e.At(3, "a", func() {
		e.At(3, "b", func() { ran = true })
	})
	e.Run()
	if !ran {
		t.Error("same-time follow-up event did not run")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.At(10, "a", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, "late", func() {})
	})
	e.Run()
}

func TestAfterNegativePanics(t *testing.T) {
	e := New()
	e.At(10, "a", func() {
		defer func() {
			if recover() == nil {
				t.Error("negative After did not panic")
			}
		}()
		e.After(-1, "neg", func() {})
	})
	e.Run()
}

func TestCancel(t *testing.T) {
	e := New()
	ran := false
	h := e.At(5, "x", func() { ran = true })
	if !h.Cancel() {
		t.Error("first Cancel returned false")
	}
	if h.Cancel() {
		t.Error("second Cancel returned true")
	}
	e.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	if e.Fired() != 0 {
		t.Errorf("Fired = %d", e.Fired())
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := New()
	h := e.At(1, "x", func() {})
	e.Run()
	if h.Cancel() {
		t.Error("Cancel after fire returned true")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var got []simtime.Time
	for _, at := range []simtime.Time{5, 10, 15} {
		at := at
		e.At(at, "x", func() { got = append(got, at) })
	}
	e.RunUntil(10)
	if e.Now() != 10 {
		t.Errorf("Now = %d, want 10", e.Now())
	}
	if len(got) != 1 || got[0] != 5 {
		t.Errorf("events before 10: %v (event at 10 must remain pending)", got)
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(got) != 3 {
		t.Errorf("after Run, events = %v", got)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("Now = %d", e.Now())
	}
	// RunUntil never moves the clock backwards.
	e.RunUntil(50)
	if e.Now() != 100 {
		t.Errorf("clock moved backwards to %d", e.Now())
	}
}

func TestPendingSkipsCancelled(t *testing.T) {
	e := New()
	e.At(1, "a", func() {})
	h := e.At(2, "b", func() {})
	h.Cancel()
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

func TestQuickEventTimesNonDecreasing(t *testing.T) {
	// However events are scheduled (including from inside events), observed
	// firing times never decrease and every uncancelled event fires.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		e := New()
		var last simtime.Time = -1
		fired := 0
		want := 0
		n := r.IntBetween(1, 30)
		for i := 0; i < n; i++ {
			at := simtime.Time(r.Intn(100))
			want++
			e.At(at, "ev", func() {
				if e.Now() < last {
					fired = -1 << 30
					return
				}
				last = e.Now()
				fired++
				if r.Bool(0.3) {
					want++
					e.After(simtime.Time(r.Intn(10)), "child", func() {
						if e.Now() < last {
							fired = -1 << 30
							return
						}
						last = e.Now()
						fired++
					})
				}
			})
		}
		e.Run()
		return fired == want && uint64(want) == e.Fired()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAtAllocs pins what scheduling an event costs once the queue has room:
// one 32-byte event and nothing else. The event keeps no label — At names it
// only in its past-time panic — so a caller's label is never held, and a
// static one costs nothing at either end. With the label kept each event was
// 48 bytes, and the VO built one ("start "+job, "finish "+job, …) per event.
func TestAtAllocs(t *testing.T) {
	e := New()
	fn := func() {}
	for range 64 {
		e.At(0, "warm", fn)
	}
	e.Run()
	step := func() {
		e.At(e.Now()+1, "tick", fn)
		e.Step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 1 {
		t.Errorf("%.0f allocations per scheduled event, want 1 (the event)", allocs)
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		step()
	}
	runtime.ReadMemStats(&after)
	if perEvent := (after.TotalAlloc - before.TotalAlloc) / n; perEvent > 32 {
		t.Errorf("%d bytes per scheduled event, want at most 32", perEvent)
	}
}
