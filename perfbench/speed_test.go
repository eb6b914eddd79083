package main

import "testing"

func TestProbeSlowdown(t *testing.T) {
	s := probeSlowdown()
	t.Logf("slowdown %.3f", s)
	// The probe's sort takes CPU time, and no host is ten times faster or
	// slower than the reference.
	if s < 0.1 || s > 10 {
		t.Errorf("slowdown = %v, want within [0.1, 10]", s)
	}
}
