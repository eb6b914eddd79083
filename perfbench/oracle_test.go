package main

import (
	"testing"

	"extscc/internal/record"
)

// TestCheckLabels checks that the oracle accepts any labelling with the
// right partition and rejects split, merged, incomplete and unsorted ones.
func TestCheckLabels(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 is one component; 3 -> 0 and 2 -> 4 are singletons.
	o := newOracle([]record.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 3, V: 0}, {U: 2, V: 4}})
	l := func(pairs ...uint32) []record.Label {
		var out []record.Label
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, record.Label{Node: pairs[i], SCC: pairs[i+1]})
		}
		return out
	}
	for _, c := range []struct {
		name   string
		labels []record.Label
		ok     bool
	}{
		{"min ids", l(0, 0, 1, 0, 2, 0, 3, 3, 4, 4), true},
		{"other ids", l(0, 2, 1, 2, 2, 2, 3, 3, 4, 4), true},
		{"split", l(0, 0, 1, 0, 2, 2, 3, 3, 4, 4), false},
		{"merged", l(0, 0, 1, 0, 2, 0, 3, 0, 4, 4), false},
		{"missing node", l(0, 0, 1, 0, 2, 0, 3, 3), false},
		{"unknown node", l(0, 0, 1, 0, 2, 0, 3, 3, 5, 5), false},
		{"unsorted", l(1, 0, 0, 0, 2, 0, 3, 3, 4, 4), false},
	} {
		if err := o.checkLabels(c.labels); (err == nil) != c.ok {
			t.Errorf("%s: checkLabels = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if !o.reaches(o.compOf(3), o.compOf(4)) || o.reaches(o.compOf(4), o.compOf(0)) {
		t.Errorf("reaches: 3 must reach 4 and 4 must not reach 0")
	}
	if o.compOf(99) != -1 || o.numSCCs != 3 || o.dagNodes != 3 {
		t.Errorf("oracle shape: comp(99)=%d sccs=%d dag=%d", o.compOf(99), o.numSCCs, o.dagNodes)
	}
}
