package main

import (
	"runtime"
	"sort"
)

// On a shared VM the host's speed drifts with what other guests run, with
// little steal to show it: in one set of ten back-to-back contract-web runs
// the median sample took 7.2-8.4 s in the first five and 4.2-4.4 s in the
// last three.  A speed probe measures that drift where and when the samples
// run: it times a fixed in-memory sort, in CPU seconds.  Engine.Run spends
// most of its time forming sorted runs of 4 MiB with sort.SliceStable (the
// extsort.sort_s span), and over 76 samples of eight runs in which the
// host's speed swung by half, the probe's time correlated 0.86 with the
// run's, with a slope of 0.8 between their logarithms.  A loop of register
// arithmetic (slope 1.5) and a 32 MiB memory copy (slope 0.6), probed
// beside it, followed the host's drift less closely.  The probe is the
// benchmark's own code and data, and a child runs it before any of the
// program's, so a change to the program does not move it.

// refProbe is the probe's CPU time, in seconds, on the 2-vCPU VM the bounds
// were set on, at its typical speed.
const refProbe = 0.240

// probeReps is how many times the probe runs; its time is the median.
const probeReps = 3

// probeEdge is an edge of the probe's sort.
type probeEdge struct{ u, v uint32 }

// probeSlowdown runs the speed probe and returns its time ÷ refProbe: 1 at
// the reference speed, 1.1 on a host a tenth slower.  A CPU-bound time
// divided by it is the time the interval would have taken at the reference
// speed.
func probeSlowdown() float64 {
	// 4 MiB of edges over 20,000 nodes, the size and node range of a
	// contract-web run.
	recs := make([]probeEdge, 512<<10)
	runtime.GC() // so that no collection overlaps the timing
	ts := make([]float64, probeReps)
	for i := range ts {
		x := uint64(88172645463325252)
		for j := range recs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			recs[j] = probeEdge{uint32(x % 20_000), uint32((x >> 32) % 20_000)}
		}
		c0 := processCPU()
		sort.SliceStable(recs, func(a, b int) bool {
			if recs[a].u != recs[b].u {
				return recs[a].u < recs[b].u
			}
			return recs[a].v < recs[b].v
		})
		ts[i] = (processCPU() - c0).Seconds()
	}
	return median(ts) / refProbe
}

// divide returns xs[i] / by[i] for every i.
func divide(xs, by []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / by[i]
	}
	return out
}
