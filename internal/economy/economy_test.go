package economy

import (
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func TestTaskCharge(t *testing.T) {
	tests := []struct {
		v    int64
		t    simtime.Time
		want int64
	}{
		{20, 2, 10},
		{30, 3, 10},
		{10, 3, 4}, // ceil(3.33)
		{20, 6, 4}, // ceil(3.33)
		{10, 4, 3}, // ceil(2.5)
		{0, 5, 0},
		{1, 1, 1},
		{7, 2, 4},
	}
	for _, tt := range tests {
		if got := TaskCharge(tt.v, tt.t); got != tt.want {
			t.Errorf("TaskCharge(%d,%d) = %d, want %d", tt.v, tt.t, got, tt.want)
		}
	}
}

func TestTaskChargePanicsOnZeroTime(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero load time")
		}
	}()
	TaskCharge(5, 0)
}

func TestQuickTaskChargeCeiling(t *testing.T) {
	// TaskCharge is the exact ceiling of V/T: charge-1 < V/T <= charge.
	f := func(v uint32, tt uint16) bool {
		vol := int64(v % 100000)
		lt := simtime.Time(tt%1000) + 1
		got := TaskCharge(vol, lt)
		if got < 0 {
			return false
		}
		return got*int64(lt) >= vol && (got-1)*int64(lt) < vol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickChargeFasterCostsMore(t *testing.T) {
	// For fixed volume, a shorter load time never lowers the bare charge —
	// the paper's "pay more to run faster".
	f := func(v uint16, a, b uint8) bool {
		vol := int64(v%1000) + 1
		t1 := simtime.Time(a%50) + 1
		t2 := simtime.Time(b%50) + 1
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return TaskCharge(vol, t1) >= TaskCharge(vol, t2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
