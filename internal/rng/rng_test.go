package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSplitNMatchesSequentialSplits(t *testing.T) {
	// SplitN must reproduce the lazy Split(0..n-1) loop exactly: same child
	// streams, same final parent state.
	a, b := New(99), New(99)
	pre := a.SplitN(16)
	for i := 0; i < 16; i++ {
		lazy := b.Split(uint64(i))
		for d := 0; d < 50; d++ {
			if got, want := pre[i].Uint64(), lazy.Uint64(); got != want {
				t.Fatalf("child %d draw %d: SplitN %d != Split %d", i, d, got, want)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("parent streams diverged after SplitN vs sequential splits")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestSplitDecorrelates(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	parent2 := New(7)
	c2 := parent2.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split streams with different labels collided %d/100 times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(99)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared style sanity check: 10 buckets, 100k draws, each bucket
	// should be within 5% of expectation.
	s := New(12345)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := draws / n
	for b, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Errorf("bucket %d: %d draws, want ~%d", b, c, want)
		}
	}
}

func TestIntBetweenInclusive(t *testing.T) {
	s := New(5)
	sawLo, sawHi := false, false
	for i := 0; i < 2000; i++ {
		v := s.IntBetween(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("IntBetween(3,6) = %d", v)
		}
		sawLo = sawLo || v == 3
		sawHi = sawHi || v == 6
	}
	if !sawLo || !sawHi {
		t.Errorf("bounds never drawn: lo=%v hi=%v", sawLo, sawHi)
	}
}

func TestIntBetweenDegenerate(t *testing.T) {
	if v := New(1).IntBetween(5, 5); v != 5 {
		t.Errorf("IntBetween(5,5) = %d", v)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(77)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64BetweenRange(t *testing.T) {
	s := New(8)
	for i := 0; i < 1000; i++ {
		v := s.Float64Between(0.33, 0.66)
		if v < 0.33 || v >= 0.66 {
			t.Fatalf("Float64Between = %v", v)
		}
	}
}

func TestBoolExtremes(t *testing.T) {
	s := New(3)
	for i := 0; i < 50; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(11)
	hits := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("Bool(0.3) frequency = %v", got)
	}
}

func TestExpMean(t *testing.T) {
	s := New(31)
	const draws = 200000
	var sum float64
	for i := 0; i < draws; i++ {
		v := s.Exp(10)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-10) > 0.2 {
		t.Errorf("Exp(10) sample mean = %v", mean)
	}
}

func TestQuickInt64nBounds(t *testing.T) {
	s := New(1234)
	f := func(n int64) bool {
		if n <= 0 {
			n = -n + 1
		}
		v := s.Int64n(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSeedDeterminism(t *testing.T) {
	f := func(seed uint64, k uint8) bool {
		a, b := New(seed), New(seed)
		n := int(k%32) + 1
		for i := 0; i < n; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return a.Float64() == b.Float64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
