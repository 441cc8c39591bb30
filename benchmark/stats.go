package main

import (
	"math"
	"sort"
)

// Stat is one end-to-end metric over a run's timed passes: the median
// with its sample count and inter-quartile range. With 3 to 11 passes
// no percentile beyond the median has ten samples behind it, so none
// is reported.
type Stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	IQR    float64   `json:"iqr"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// median returns the middle of vs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive
// method, the one Python's statistics.quantiles(vs, n=4) uses, so the
// spreads printed here are the ones the acceptance protocol computes.
// Fewer than two values have no spread: both quartiles are the value.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func newStat(unit string, vs []float64) Stat {
	q1, q3 := quartiles(vs)
	return Stat{Unit: unit, Median: median(vs), Q1: q1, Q3: q3, IQR: q3 - q1, N: len(vs), Values: vs}
}

// Verdict classifies one (workload, metric) row of a comparison.
type Verdict string

const (
	VerdictOK         Verdict = "ok"
	VerdictRegressed  Verdict = "regressed"
	VerdictUnresolved Verdict = "unresolved"
)

// judge compares a candidate b against a base a for a metric where
// lower is better. bound is the share of a's median by which b may be
// worse. The row is unresolved when either spread is wider than the
// bound allows and the two runs' value ranges overlap: the difference,
// whichever way it points, is then inside the noise. A zero base (the
// failure ratio) has an absolute bound: any increase regresses, and
// delta is then the increase itself.
func judge(a, b Stat, bound float64) (delta float64, v Verdict) {
	if a.Median == 0 {
		if b.Median > 0 {
			return b.Median, VerdictRegressed
		}
		return 0, VerdictOK
	}
	delta = (b.Median - a.Median) / a.Median
	limit := bound * a.Median
	if (a.IQR > limit || b.IQR > limit) && overlaps(a.Values, b.Values) {
		return delta, VerdictUnresolved
	}
	if delta > bound {
		return delta, VerdictRegressed
	}
	return delta, VerdictOK
}

func overlaps(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	minMax := func(vs []float64) (lo, hi float64) {
		lo, hi = vs[0], vs[0]
		for _, v := range vs {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return
	}
	alo, ahi := minMax(a)
	blo, bhi := minMax(b)
	return alo <= bhi && blo <= ahi
}
