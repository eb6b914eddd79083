package main

import (
	"math"
	"slices"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), the definition the benchmark's spreads
// are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3.1, 1.2}, [3]float64{0.725, 2.15, 3.575}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
		{[]float64{42}, [3]float64{42, 42, 42}},
	} {
		s := slices.Clone(c.xs)
		slices.Sort(s)
		q1, q2, q3 := quartiles(s)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
				break
			}
		}
	}
}

// TestTailPercentile checks that the reported tail is the highest
// percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// With 1000 samples 1..1000, the p99 is 990: ten samples lie beyond it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := summarize(xs)
	if d.TailP != 99 || d.Tail != 990 || d.N != 1000 {
		t.Fatalf("summarize(1..1000) = %+v, want p99 = 990", d)
	}
	beyond := 0
	for _, x := range xs {
		if x > d.Tail {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the p99, want 10", beyond)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {25, 10}, {26, 20}, {50, 20}, {99, 40}, {100, 40}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", s, c.p, got, c.want)
		}
	}
}

func TestQuietMedian(t *testing.T) {
	for _, c := range []struct {
		values, steal []float64
		want          float64
	}{
		{[]float64{5}, []float64{0.3}, 5},
		// Fewer than three samples: all of them.
		{[]float64{9, 7}, []float64{0.2, 0.01}, 8},
		// Three samples are never halved.
		{[]float64{9, 7, 6}, []float64{0.2, 0.01, 0.02}, 7},
		// Four keep the three quietest; ties keep sample order.
		{[]float64{1, 2, 30, 40}, []float64{0, 0, 0, 0}, 2},
		{[]float64{10, 1, 2, 3, 50}, []float64{0.1, 0.01, 0.02, 0.03, 0.3}, 2},
		// Eight keep the quieter half: 1, 2, 3 and 4.
		{[]float64{1, 90, 2, 80, 3, 70, 4, 60}, []float64{0, 0.5, 0.01, 0.4, 0.02, 0.3, 0.03, 0.2}, 2.5},
	} {
		if got := quietMedian(c.values, c.steal); got != c.want {
			t.Errorf("quietMedian(%v, %v) = %v, want %v", c.values, c.steal, got, c.want)
		}
	}
}
