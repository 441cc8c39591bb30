package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// CompareRow is one (workload, end-to-end metric) of a comparison. The
// delta is (B - A) / A: every ratio is printed next to its base.
type CompareRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	A        Stat    `json:"a"`
	B        Stat    `json:"b"`
	Delta    float64 `json:"delta"`
	Bound    float64 `json:"bound"`
	Verdict  Verdict `json:"verdict"`
	Noisy    bool    `json:"noisy"`
}

var comparedMetrics = []string{"setup_s", "wall_s", "cpu_s", "alloc_mb", "failed_frac"}

// compareSets judges set b against base a, one row per workload and
// end-to-end metric. A workload missing from either side is an error:
// the two sets were not made by the same benchmark.
func compareSets(a, b *ResultSet) ([]CompareRow, error) {
	var rows []CompareRow
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			return nil, fmt.Errorf("workload %s is in the first set only", wa.Name)
		}
		for _, m := range comparedMetrics {
			sa, oka := wa.EndToEnd[m]
			sb, okb := wb.EndToEnd[m]
			if !oka || !okb {
				return nil, fmt.Errorf("workload %s: metric %s is not in both sets", wa.Name, m)
			}
			bound := boundOf(m)
			delta, v := judge(sa, sb, bound)
			noisy := wa.Noisy || wb.Noisy
			if noisy && v == VerdictRegressed && sa.Median != 0 {
				v = VerdictUnresolved // the host was measurably slower: measure again
			}
			rows = append(rows, CompareRow{
				Workload: wa.Name, Metric: m, Unit: sa.Unit, A: sa, B: sb,
				Delta: delta, Bound: bound, Verdict: v, Noisy: noisy,
			})
		}
	}
	if len(b.Workloads) != len(a.Workloads) {
		return nil, fmt.Errorf("the sets hold %d and %d workloads", len(a.Workloads), len(b.Workloads))
	}
	return rows, nil
}

func regressed(rows []CompareRow) int {
	n := 0
	for _, r := range rows {
		if r.Verdict == VerdictRegressed {
			n++
		}
	}
	return n
}

func printCompare(w io.Writer, rows []CompareRow) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA iqr\tB median\tB iqr\t(B-A)/A\tbound\tverdict")
	for _, r := range rows {
		verdict := string(r.Verdict)
		if r.Noisy {
			verdict += " (noisy)"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.3g\t%.4g\t%.3g\t%+.1f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.Unit, r.A.Median, r.A.IQR, r.B.Median, r.B.IQR, 100*r.Delta, 100*r.Bound, verdict)
	}
	tw.Flush()
}
