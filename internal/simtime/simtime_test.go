package simtime

import "testing"

func TestIntervalBasics(t *testing.T) {
	tests := []struct {
		name     string
		iv       Interval
		wantLen  Time
		wantEmpt bool
	}{
		{"normal", Interval{2, 7}, 5, false},
		{"point-empty", Interval{3, 3}, 0, true},
		{"inverted-empty", Interval{5, 1}, 0, true},
		{"unit", Interval{0, 1}, 1, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.iv.Len(); got != tt.wantLen {
				t.Errorf("Len() = %d, want %d", got, tt.wantLen)
			}
			if got := tt.iv.Empty(); got != tt.wantEmpt {
				t.Errorf("Empty() = %v, want %v", got, tt.wantEmpt)
			}
		})
	}
}

func TestIntervalOverlaps(t *testing.T) {
	tests := []struct {
		a, b Interval
		want bool
	}{
		{Interval{0, 5}, Interval{5, 10}, false}, // touching half-open
		{Interval{0, 5}, Interval{4, 10}, true},
		{Interval{0, 5}, Interval{6, 10}, false},
		{Interval{0, 10}, Interval{3, 4}, true}, // nested
		{Interval{3, 3}, Interval{0, 10}, false},
		{Interval{0, 10}, Interval{3, 3}, false}, // empty never overlaps
	}
	for _, tt := range tests {
		if got := tt.a.Overlaps(tt.b); got != tt.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if got := tt.b.Overlaps(tt.a); got != tt.want {
			t.Errorf("overlap not symmetric for %v, %v", tt.a, tt.b)
		}
	}
}

func TestIntervalIntersect(t *testing.T) {
	a := Interval{0, 10}
	b := Interval{5, 15}
	got := a.Intersect(b)
	if got != (Interval{5, 10}) {
		t.Errorf("Intersect = %v, want [5,10)", got)
	}
	c := Interval{20, 30}
	if !a.Intersect(c).Empty() {
		t.Errorf("disjoint Intersect not empty: %v", a.Intersect(c))
	}
}
