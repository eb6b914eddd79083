package main

import (
	"cmp"
	"math"
	"slices"
)

// dist summarises the samples of one measurement: the median, the quartiles
// and the highest percentile that still has at least ten samples beyond it
// (tailP, with its value tail), together with the sample count.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	TailP  float64 `json:"tail_p"`
	Tail   float64 `json:"tail"`
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q1, q2, q3 := quartiles(s)
	p := tailPercentile(len(s))
	return dist{N: len(s), Median: q2, Q1: q1, Q3: q3, TailP: p, Tail: percentile(s, p)}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of sorted by the "exclusive" method
// of Python's statistics.quantiles(data, n=4), the definition the benchmark's
// spreads are judged by.  A single sample is its own quartiles.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	ld := len(sorted)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return sorted[0], sorted[0], sorted[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75}

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least ten of n samples beyond it, or 50 (the median) when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of sorted: the smallest
// sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// quietMedian returns the median of the values measured in the quieter
// samples: those with the lowest steal share, ties in sample order.
// It keeps the quieter half, but never fewer than three samples (or all of
// them, when there are fewer).  On a shared VM other guests take CPU from
// some windows and not others; a run then reports what the program does
// when it gets the CPU, while every sample keeps its steal reading in the
// result.
func quietMedian(values, steal []float64) float64 {
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(steal[a], steal[b]) })
	keep := max((len(idx)+1)/2, min(len(idx), 3))
	quiet := make([]float64, 0, keep)
	for _, i := range idx[:keep] {
		quiet = append(quiet, values[i])
	}
	return median(quiet)
}

// session summarises one timed burst of queries: its size, wall and CPU
// time, latency percentiles, and the host's steal meanwhile.
type session struct {
	Queries int     `json:"queries"`
	Wall    float64 `json:"wall_s"`
	CPU     float64 `json:"cpu_s"`
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	P99     float64 `json:"p99_ms"`
	Noise   noise   `json:"noise"`
}

func newSession(latMs []float64, wall, cpu float64, n noise) session {
	s := slices.Clone(latMs)
	slices.Sort(s)
	return session{
		Queries: len(s), Wall: wall, CPU: cpu, Noise: n,
		P50: percentile(s, 50), P90: percentile(s, 90), P99: percentile(s, 99),
	}
}

// unstolen scales the time t of a CPU-bound interval by the share of the CPU
// time the VM asked for in that interval that the hypervisor granted: the
// time the interval would have taken had no other guest run.  On a quiet
// host it is the measured time itself.
func unstolen(t float64, n noise) float64 { return t * (1 - n.DemandSteal) }
