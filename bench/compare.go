package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
)

// compareFiles prints one row per workload × end-to-end metric of two
// sides, A the base and B the candidate, and returns non-zero if any
// metric regressed. A side is one result.json or several separated by
// commas; with several, a side's samples are the files' medians (its
// run-to-run spread), with one, they are that run's passes.
//
// A metric is unresolved when the quartile spread of either side is
// wider than its bound and the two sides' samples overlap: the runs
// cannot tell a change of that size from noise. Otherwise it regressed
// if B's median is worse than A's by more than the bound, and is ok if
// not.
func compareFiles(listA, listB string) int {
	a, metaA, err := loadSide(listA)
	if err == nil {
		b, metaB, err2 := loadSide(listB)
		if err = err2; err == nil {
			fmt.Printf("A: %s   B: %s\n", metaA, metaB)
			return compareSides(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

type metricKey struct{ workload, name string }

// loadSide reads one side's files into one end-to-end row per workload
// and metric, in the order the first file lists them.
func loadSide(list string) ([]row, string, error) {
	paths := strings.Split(list, ",")
	var first []row
	medians := map[metricKey][]float64{}
	var meta []string
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, "", err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, "", fmt.Errorf("bench: %s: %w", path, err)
		}
		meta = append(meta, fmt.Sprintf("commit %s seed %d", rep.Commit, rep.Seed))
		for _, r := range rep.Rows {
			if !r.EndToEnd {
				continue
			}
			if i == 0 {
				first = append(first, r)
			}
			k := metricKey{r.Workload, r.Name}
			medians[k] = append(medians[k], r.Median)
		}
	}
	if len(paths) > 1 {
		for i, r := range first {
			s := summarize(r.Workload, r.Name, r.Unit, medians[metricKey{r.Workload, r.Name}])
			s.EndToEnd, s.Better, s.Bound = true, r.Better, r.Bound
			first[i] = s
		}
	}
	return first, strings.Join(meta, "; "), nil
}

func compareSides(a, b []row) int {
	base := map[metricKey]row{}
	for _, r := range a {
		base[metricKey{r.Workload, r.Name}] = r
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tB/A\tbound\tverdict")
	regressed := 0
	for _, rb := range b {
		ra, ok := base[metricKey{rb.Workload, rb.Name}]
		if !ok || ra.Median == 0 || rb.Median == 0 {
			continue
		}
		v := verdict(ra, rb)
		if v == "regressed" {
			regressed++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.3f (base %.6g)\t%.0f%%\t%s\n",
			rb.Workload, rb.Name, rb.Unit, ra.Median, rb.Median, rb.Median/ra.Median, ra.Median, 100*rb.Bound, v)
	}
	tw.Flush()
	if regressed > 0 {
		fmt.Printf("%d metric(s) regressed\n", regressed)
		return 1
	}
	return 0
}

func verdict(a, b row) string {
	worse := b.Median/a.Median - 1 // share by which B is worse than A
	if b.Better == "higher" {
		worse = 1 - b.Median/a.Median
	}
	spread := max((a.Q3-a.Q1)/a.Median, (b.Q3-b.Q1)/b.Median)
	overlap := a.Min <= b.Max && b.Min <= a.Max
	switch {
	case spread > b.Bound && overlap:
		return "unresolved"
	case worse > b.Bound:
		return "regressed"
	}
	return "ok"
}
