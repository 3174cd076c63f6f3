package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// row is the one record shape every number leaves the harness in: a
// named metric of one workload with its unit, sample count, median and
// quartiles. Kind is always "measured" — nothing here is a projection.
type row struct {
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Kind     string  `json:"kind"`
	EndToEnd bool    `json:"end_to_end,omitempty"`
	Better   string  `json:"better,omitempty"`
	Bound    float64 `json:"bound,omitempty"`
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
}

// layer is the row name's first dotted component: the package measured.
func (r row) layer() string {
	if i := strings.IndexByte(r.Name, '.'); i > 0 {
		return r.Name[:i]
	}
	return "end-to-end"
}

// summarize turns samples into a row. An empty sample set is a row of
// zeros with n=0: the layer did no work in this workload.
func summarize(workload, name, unit string, samples []float64) row {
	r := row{Workload: workload, Name: name, Unit: unit, Kind: "measured", N: len(samples)}
	if len(samples) == 0 {
		return r
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	r.Min, r.Max = s[0], s[len(s)-1]
	r.Q1, r.Median, r.Q3 = quantile(s, 1), quantile(s, 2), quantile(s, 3)
	return r
}

// single is a row holding one exact value (a count, or one measurement).
func single(workload, name, unit string, v float64) row {
	return summarize(workload, name, unit, []float64{v})
}

// quantile returns the k-th quartile of sorted data by the method
// Python's statistics.quantiles(n=4) uses, so the spreads the harness
// prints are the spreads the driver computes.
func quantile(sorted []float64, k int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := float64(k) * float64(n+1) / 4
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

// percentile is the nearest-rank percentile of unsorted durations.
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func medianOf(v []float64) float64 { return summarize("", "", "", v).Median }
