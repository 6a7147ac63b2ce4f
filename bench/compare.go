package main

import (
	"fmt"
	"math"
	"strings"
)

// side is one side of a comparison: the rows of one or more runs of
// the same tree, by workload and metric.
type side map[[2]string][]row

// readSide reads the files of a side, and returns with them the keys in
// the order the files first name them, which is the order to print in.
func readSide(paths string) (side, [][2]string, error) {
	s := side{}
	var order [][2]string
	for _, path := range strings.Split(paths, ",") {
		f, err := readResults(path)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range f.Results {
			k := [2]string{r.Workload, r.Metric}
			if len(s[k]) == 0 {
				order = append(order, k)
			}
			s[k] = append(s[k], r)
		}
	}
	return s, order, nil
}

// summary is a metric over the runs of a side: the median of the runs'
// values, and how far apart they lie as a share of it. With four runs
// or more that is the distance between the quartiles of the values, the
// driver's own measure; with fewer it is the widest p25–p75 of a row,
// which tells how the samples of one run spread, not how runs do.
func summary(rows []row) (value, spread float64) {
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = r.Value
		spread = math.Max(spread, math.Abs(ratio(r.P75-r.P25, r.Value)))
	}
	m := median(vals)
	if len(rows) >= 4 {
		spread = math.Abs(ratio(m.p75-m.p25, m.value))
	}
	return m.value, spread
}

// compareFiles prints B against A, each a results file or a
// comma-separated list of results files of repeated runs, paired by
// workload and metric. Every ratio is worked out from the raw values.
// An end-to-end pair is labelled against the metric's bound: worse or
// better when B differs from A by more than the bound, and otherwise
// same, or unresolved when either side's spread is wider than the
// bound, so that the runs could not have shown a change of that size.
// Any worse pair is an error.
func compareFiles(pathsA, pathsB string) error {
	a, order, err := readSide(pathsA)
	if err != nil {
		return err
	}
	b, _, err := readSide(pathsB)
	if err != nil {
		return err
	}
	bounds := map[string]metricDef{}
	for _, d := range endToEndMetrics {
		bounds[d.Name] = d
	}
	worse := 0
	fmt.Printf("%-14s %-34s %14s %14s %8s  %s\n", "workload", "metric", "A", "B", "B/A", "")
	for _, k := range order {
		va, sa := summary(a[k])
		if len(b[k]) == 0 {
			fmt.Printf("%-14s %-34s %14.4f %14s\n", k[0], k[1], va, "missing")
			continue
		}
		vb, sb := summary(b[k])
		label := ""
		if d, ok := bounds[k[1]]; ok {
			label = judge(d, va, vb, math.Max(sa, sb))
			if label == "worse" {
				worse++
			}
		}
		fmt.Printf("%-14s %-34s %14.4f %14.4f %8.3f  %s\n", k[0], k[1], va, vb, ratio(vb, va), label)
	}
	if worse > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse in %s than in %s", worse, pathsB, pathsA)
	}
	return nil
}

// judge labels one end-to-end pair of values, given the wider of the two
// sides' spreads.
func judge(d metricDef, a, b, spread float64) string {
	// change is how much worse B is than A, as a share of A.
	change := ratio(b-a, a)
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case change > d.Bound:
		return "worse"
	case change < -d.Bound:
		return "better"
	case spread > d.Bound:
		return "unresolved"
	default:
		return "same"
	}
}
