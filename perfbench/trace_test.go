package main

import (
	"testing"
	"time"

	"extscc/internal/iomodel"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestSelfTimes checks the self-time arithmetic: a span's self time is its
// duration minus the union of its children's intervals clipped to it.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noParent, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 2, Parent: 0, Name: "b", Start: ms(30), End: ms(60)}, // overlaps a
		{ID: 3, Parent: 1, Name: "a1", Start: ms(15), End: ms(20)},
		{ID: 4, Parent: 0, Name: "c", Start: ms(90), End: ms(120)}, // runs past root
	}
	want := []time.Duration{ms(100 - 50 - 10), ms(30 - 5), ms(30), ms(5), ms(30)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

// TestAggregateLayout checks that aggregate children are laid out back to
// back from the parent's start and clipped to it, keep their full total,
// and never drive a self time negative or above its inclusive time.
func TestAggregateLayout(t *testing.T) {
	tr := newTracer(&iomodel.Stats{})
	tr.spans = []span{{ID: 0, Parent: noParent, Name: "contraction", Start: ms(0), End: ms(100)}}
	tr.aggregate(0, "extsort.sort", 3, ms(30))
	tr.aggregate(0, "extsort.merge", 2, ms(20))
	tr.aggregate(0, "extsort.sort", 1, ms(80)) // ran concurrently: more than fits
	if s := tr.spans[2]; s.Start != ms(30) || s.End != ms(50) {
		t.Fatalf("merge laid out at [%v, %v], want [30ms, 50ms]", s.Start, s.End)
	}
	if s := tr.spans[3]; s.Start != ms(50) || s.End != ms(100) || s.Total != ms(80) {
		t.Fatalf("clipped aggregate = %+v, want [50ms, 100ms] with total 80ms", s)
	}
	self := selfTimes(tr.spans)
	for i, s := range tr.spans {
		if self[i] < 0 || self[i] > s.dur() {
			t.Errorf("self(%s) = %v outside [0, %v]", s.Name, self[i], s.dur())
		}
	}
	lt := layerTotals(tr.spans)
	if got := lt["extsort.sort"]; got.Incl != ms(110) || got.Count != 4 {
		t.Errorf("extsort.sort totals = %+v, want 110ms over 4 calls", got)
	}
	if got := lt["contraction"]; got.Self != 0 || got.Incl != ms(100) {
		t.Errorf("contraction totals = %+v, want 100ms inclusive, 0 self", got)
	}
}
