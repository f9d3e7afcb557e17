package main

import (
	"math"
	"testing"
)

func TestSummarizeReportsCountsAndResolvedPercentiles(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // 1000..1, unsorted input
	}
	d := summarize(samples, 50, 90, 99, 99.9)
	if d.N != 1000 || d.Mean != 500.5 {
		t.Fatalf("N=%d mean=%v, want 1000 and 500.5", d.N, d.Mean)
	}
	for _, c := range []struct {
		p        float64
		value    float64
		beyond   int
		resolved bool
	}{
		{50, 500, 500, true},
		{90, 900, 100, true},
		{99, 990, 10, true},
		{99.9, 999, 1, false},
	} {
		q := d.At(c.p)
		if q.Value != c.value || q.Beyond != c.beyond || q.Resolved() != c.resolved {
			t.Errorf("p%v = %+v resolved=%v, want value %v beyond %d resolved=%v", c.p, q, q.Resolved(), c.value, c.beyond, c.resolved)
		}
	}
	if samples[0] != 1000 {
		t.Error("summarize reordered its input")
	}
}

func TestSummarizeSmallAndEmptySamples(t *testing.T) {
	d := summarize([]float64{3, 1, 2}, 50, 99)
	if q := d.At(50); q.Value != 2 || q.Beyond != 1 {
		t.Errorf("p50 of 3 samples = %+v, want 2 with 1 beyond", q)
	}
	if q := d.At(99); q.Value != 3 || q.Beyond != 0 || q.Resolved() {
		t.Errorf("p99 of 3 samples = %+v, want the max, unresolved", q)
	}
	if d := summarize(nil, 50); d.N != 0 || d.At(50).Value != 0 {
		t.Errorf("empty sample = %+v", d)
	}
}

func TestLatencyMetricsNoteUnresolvedPercentiles(t *testing.T) {
	ms := make([]float64, 500)
	for i := range ms {
		ms[i] = float64(i)
	}
	got := latencyMetrics(ms)
	if len(got) != 3 || got[2].Name != "p99_ms" || got[2].Samples != 500 {
		t.Fatalf("latencyMetrics = %+v", got)
	}
	if want := "5 beyond, unresolved: fewer than 10 samples beyond"; got[2].Note != want {
		t.Errorf("p99 note %q, want %q", got[2].Note, want)
	}
	if want := "50 beyond"; got[1].Note != want {
		t.Errorf("p90 note %q, want %q", got[1].Note, want)
	}
}

func TestPerKeyMediansDropOneOffStalls(t *testing.T) {
	// Three keys sent in turn, five times each; one send of key 1 is
	// stalled.
	var samples []float64
	for rep := 0; rep < 5; rep++ {
		for k := 0; k < 3; k++ {
			v := float64(k+1) + float64(rep)/10
			if k == 1 && rep == 3 {
				v = 100
			}
			samples = append(samples, v)
		}
	}
	got := perKeyMedians(samples, 3)
	want := []float64{1.2, 2.2, 3.2}
	if len(got) != len(want) {
		t.Fatalf("perKeyMedians = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("key %d median %v, want %v", i, got[i], want[i])
		}
	}
	if got := perKeyMedians(samples[:2], 3); len(got) != 2 {
		t.Errorf("keys without samples: got %v, want two medians", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of odd count = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of even count = %v", m)
	}
}
