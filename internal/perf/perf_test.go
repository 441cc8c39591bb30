package perf

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestCountersAddTotal(t *testing.T) {
	var c Counters
	c.Add(IntALU, 10)
	c.Add(Load, 5)
	c.Add(Load, 5)
	if c.Total() != 20 {
		t.Errorf("Total = %d, want 20", c.Total())
	}
	if c.Ops[Load] != 10 {
		t.Errorf("Load = %d, want 10", c.Ops[Load])
	}
}

func TestCountersFractionsSumToOne(t *testing.T) {
	f := func(vals [7]uint16) bool {
		var c Counters
		total := uint64(0)
		for i, v := range vals {
			c.Add(OpClass(i), uint64(v))
			total += uint64(v)
		}
		fr := c.Fractions()
		var sum float64
		for _, x := range fr {
			sum += x
		}
		if total == 0 {
			return sum == 0
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpClassString(t *testing.T) {
	if IntALU.String() != "int-alu" || VecOp.String() != "vector" {
		t.Error("OpClass names wrong")
	}
	if OpClass(99).String() != "OpClass(99)" {
		t.Error("out-of-range OpClass name wrong")
	}
}

func TestTaskStatsSummary(t *testing.T) {
	ts := NewTaskStats("cells")
	in := []float64{3, 1, 10, 2, 4}
	for _, w := range in {
		ts.Observe(w)
	}
	if got := ts.Work(); !slices.Equal(got, in) {
		t.Errorf("Work() = %v, want observation order %v", got, in)
	}
	s := ts.Summarize()
	if s.Count != 5 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.Mean != 4 {
		t.Errorf("Mean = %v, want 4", s.Mean)
	}
	if s.Max != 10 || s.Min != 1 {
		t.Errorf("Max/Min = %v/%v", s.Max, s.Min)
	}
	if math.Abs(s.MaxToMean-2.5) > 1e-9 {
		t.Errorf("MaxToMean = %v, want 2.5", s.MaxToMean)
	}
	if s.P50 != 3 {
		t.Errorf("P50 = %v, want 3", s.P50)
	}
	if s.TotalWork != 20 {
		t.Errorf("TotalWork = %v, want 20", s.TotalWork)
	}
}

func TestTaskStatsEmpty(t *testing.T) {
	s := NewTaskStats("x").Summarize()
	if s.Count != 0 || s.Mean != 0 || s.MaxToMean != 0 {
		t.Errorf("empty summary nonzero: %+v", s)
	}
}

func TestQuantileMonotone(t *testing.T) {
	ts := NewTaskStats("x")
	for i := 0; i < 100; i++ {
		ts.Observe(float64(i))
	}
	s := ts.Summarize()
	if !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max) {
		t.Errorf("quantiles not monotone: %+v", s)
	}
}

func TestTaskStatsMaxToMeanProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		ts := NewTaskStats("w")
		for _, r := range raw {
			ts.Observe(float64(r) + 1) // strictly positive
		}
		s := ts.Summarize()
		if len(raw) == 0 {
			return s.Count == 0
		}
		return s.MaxToMean >= 1 && s.Max >= s.Mean && s.Mean >= s.Min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSparklineShapes(t *testing.T) {
	ts := NewTaskStats("w")
	if s := ts.Sparkline(8); s != "" {
		t.Errorf("empty stats sparkline %q", s)
	}
	// Uniform work: single filled bucket.
	for i := 0; i < 10; i++ {
		ts.Observe(5)
	}
	s := ts.Sparkline(8)
	if len([]rune(s)) != 8 {
		t.Fatalf("sparkline width %d", len([]rune(s)))
	}
	if []rune(s)[0] != '█' {
		t.Errorf("uniform distribution should fill the first bucket: %q", s)
	}
	// Heavy tail: first bucket tall, last bucket present.
	ts2 := NewTaskStats("w")
	for i := 0; i < 100; i++ {
		ts2.Observe(1)
	}
	ts2.Observe(1000)
	s2 := []rune(ts2.Sparkline(8))
	if s2[0] == ' ' || s2[len(s2)-1] == ' ' {
		t.Errorf("tail not visible in %q", string(s2))
	}
	if s2[0] <= s2[len(s2)-1] {
		t.Errorf("head should be taller than tail in %q", string(s2))
	}
}
