package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.median / statistics.quantiles(v, n=4).
	cases := []struct {
		v           []float64
		med, q1, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2, 4, 8}, 3, 1.25, 7},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if m := median(c.v); !near(m, c.med) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %v q1 %v q3 %v, want %v %v %v", c.v, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	s := newStat("s", []float64{1, 2, 4, 8})
	if !near(s.IQR, 5.75) || s.N != 4 || s.Unit != "s" {
		t.Errorf("newStat: %+v", s)
	}
}

func TestJudgeBoundArithmetic(t *testing.T) {
	tight := func(m float64) Stat { return newStat("s", []float64{m * 0.99, m, m * 1.01}) }
	wide := func(m float64) Stat { return newStat("s", []float64{m * 0.7, m, m * 1.3}) }
	cases := []struct {
		name  string
		a, b  Stat
		bound float64
		want  Verdict
	}{
		{"equal", tight(10), tight(10), 0.10, VerdictOK},
		{"within bound", tight(10), tight(10.9), 0.10, VerdictOK},
		{"beyond bound", tight(10), tight(11.2), 0.10, VerdictRegressed},
		{"better", tight(10), tight(5), 0.10, VerdictOK},
		{"wide and overlapping", wide(10), wide(11.5), 0.10, VerdictUnresolved},
		{"wide but disjoint", wide(10), wide(30), 0.10, VerdictRegressed},
		{"zero base stays zero", newStat("ratio", []float64{0}), newStat("ratio", []float64{0}), 0, VerdictOK},
		{"zero base, any failure", newStat("ratio", []float64{0}), newStat("ratio", []float64{0.01}), 0, VerdictRegressed},
	}
	for _, c := range cases {
		if _, v := judge(c.a, c.b, c.bound); v != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, v, c.want)
		}
	}
	if d, _ := judge(tight(10), tight(11), 0.25); !near(d, 0.1) {
		t.Errorf("delta %v, want 0.1 of the base", d)
	}
}
