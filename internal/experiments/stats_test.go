package experiments

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty series must report zeros")
	}
}

func TestSeriesStats(t *testing.T) {
	var s Series
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Max() != 9 {
		t.Errorf("Max = %v", s.Max())
	}
}

func TestSeriesAddInt(t *testing.T) {
	var s Series
	s.AddInt(3)
	s.AddInt(5)
	if s.Mean() != 4 {
		t.Errorf("Mean = %v", s.Mean())
	}
}

func TestPercentile(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {1, 1}, {50, 50}, {95, 95}, {100, 100}, {-5, 1}, {150, 100},
	}
	for _, tt := range tests {
		if got := s.Percentile(tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestCounter(t *testing.T) {
	c := newCounter()
	c.inc("fast", 32)
	c.inc("slow", 68)
	if c.total() != 100 {
		t.Errorf("total = %d", c.total())
	}
	if c.share("fast") != 0.32 {
		t.Errorf("share(fast) = %v", c.share("fast"))
	}
	if c.share("missing") != 0 {
		t.Error("missing label has a share")
	}
}

func TestCounterEmptyShare(t *testing.T) {
	if newCounter().share("x") != 0 {
		t.Error("empty counter share not 0")
	}
}

func TestNormalize(t *testing.T) {
	in := map[string]float64{"S2": 10, "S3": 5, "MS1": 8}
	out := normalize(in)
	if out["S2"] != 1 || out["S3"] != 0.5 || out["MS1"] != 0.8 {
		t.Errorf("normalize = %v", out)
	}
	zero := normalize(map[string]float64{"a": 0, "b": 0})
	if zero["a"] != 0 || zero["b"] != 0 {
		t.Errorf("all-zero normalize = %v", zero)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(0.38); got != "38.0%" {
		t.Errorf("ratio = %q", got)
	}
}

func TestQuickMeanWithinBounds(t *testing.T) {
	f := func(vals []float64) bool {
		var s Series
		min := math.Inf(1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Keep magnitudes sane: the property is about ordering, not
			// float overflow in the running sum.
			v = math.Mod(v, 1e12)
			s.Add(v)
			min = math.Min(min, v)
		}
		if math.IsInf(min, 1) {
			return true
		}
		m := s.Mean()
		return m >= min-1e-9 && m <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		var s Series
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		p1, p2 := float64(a%101), float64(b%101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return s.Percentile(p1) <= s.Percentile(p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalizeMaxIsOne(t *testing.T) {
	f := func(a, b, c uint16) bool {
		in := map[string]float64{"a": float64(a), "b": float64(b), "c": float64(c)}
		out := normalize(in)
		var max float64
		for _, v := range out {
			if v < 0 || v > 1 {
				return false
			}
			if v > max {
				max = v
			}
		}
		if a == 0 && b == 0 && c == 0 {
			return max == 0
		}
		return max == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
