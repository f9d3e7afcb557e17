package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark treats it as resolved: a p99 over 500 samples rests on five
// values and says little about the tail.
const minBeyond = 10

// quantile is one percentile of a distribution with the number of
// samples strictly beyond its rank.
type quantile struct {
	P      float64
	Value  float64
	Beyond int
}

// Resolved reports whether at least minBeyond samples lie beyond q.
func (q quantile) Resolved() bool { return q.Beyond >= minBeyond }

// distribution summarizes a sample: its count, mean and the requested
// percentiles (nearest rank).
type distribution struct {
	N     int
	Mean  float64
	Quant []quantile
}

// summarize sorts a copy of samples and reads the percentiles ps (each in
// (0, 100]) by nearest rank: the smallest value with at least p% of the
// samples at or below it.
func summarize(samples []float64, ps ...float64) distribution {
	d := distribution{N: len(samples)}
	if len(samples) == 0 {
		for _, p := range ps {
			d.Quant = append(d.Quant, quantile{P: p})
		}
		return d
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	d.Mean = sum / float64(len(s))
	for _, p := range ps {
		// The epsilon keeps float error from bumping an exact rank, as in
		// 99.9% of 1000.
		rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
		rank = min(max(rank, 1), len(s))
		d.Quant = append(d.Quant, quantile{P: p, Value: s[rank-1], Beyond: len(s) - rank})
	}
	return d
}

// At returns the quantile for percentile p, which must have been asked
// of summarize.
func (d distribution) At(p float64) quantile {
	for _, q := range d.Quant {
		if q.P == p { //thorlint:allow no-float-eq looks up the exact percentile value the caller summarized
			return q
		}
	}
	panic(fmt.Sprintf("perfbench: percentile %v not summarized", p))
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// metric is one reported figure with the sample count behind it.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
	// Note says how the figure was made when its name does not, e.g.
	// that a percentile has fewer than minBeyond samples beyond it.
	Note string
}

// latencyMetrics renders the p50/p90/p99 metrics of a latency sample in
// milliseconds, noting any percentile that rests on fewer than minBeyond
// samples beyond it.
func latencyMetrics(ms []float64) []metric {
	d := summarize(ms, 50, 90, 99)
	var out []metric
	for _, q := range d.Quant {
		note := fmt.Sprintf("%d beyond", q.Beyond)
		if !q.Resolved() {
			note += ", unresolved: fewer than 10 samples beyond"
		}
		out = append(out, metric{Name: fmt.Sprintf("p%d_ms", int(q.P)), Value: q.Value, Unit: "ms", Samples: d.N, Note: note})
	}
	return out
}

// perKeyMedians groups samples by key — sample r belongs to key r mod
// keys — and returns each key's median, in key order. Keys with no
// sample are left out.
func perKeyMedians(samples []float64, keys int) []float64 {
	groups := make([][]float64, keys)
	for r, v := range samples {
		groups[r%keys] = append(groups[r%keys], v)
	}
	out := make([]float64, 0, keys)
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, median(g))
		}
	}
	return out
}

// ratio divides, answering 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 { //thorlint:allow no-float-eq guards the one value division is undefined for
		return 0
	}
	return num / den
}

// table renders metrics as aligned text lines for the human-readable part
// of the output.
func table(ms []metric) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "  %-32s %14.6g %-6s n=%-8d %s\n", m.Name, m.Value, m.Unit, m.Samples, m.Note)
	}
	return b.String()
}
