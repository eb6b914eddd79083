package record

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// less reports whether a sorts before b under the order key.
func less[T any](key func(T) Key, a, b T) bool { return key(a).Less(key(b)) }

// boundaryIDs are the id values where a packing mistake shows: zero, the
// sign-bit boundary and the largest ids.
var boundaryIDs = []uint32{0, 1, math.MaxInt32, math.MaxInt32 + 1, math.MaxUint32 - 1, math.MaxUint32}

// checkKeyOrder checks that key orders records exactly as a plain
// lexicographic comparison of fields(rec), the order's fields from most to
// least significant.  build makes a record from three field values.
func checkKeyOrder[T any](t *testing.T, name string, key func(T) Key, fields func(T) []uint32, build func(x, y, z uint32) T) {
	t.Helper()
	agrees := func(a, b T) bool {
		c := slices.Compare(fields(a), fields(b))
		return key(a).Less(key(b)) == (c < 0) && (key(a) == key(b)) == (c == 0)
	}
	var grid []T
	for _, x := range boundaryIDs {
		for _, y := range boundaryIDs {
			for _, z := range boundaryIDs {
				grid = append(grid, build(x, y, z))
			}
		}
	}
	for _, a := range grid {
		for _, b := range grid {
			if !agrees(a, b) {
				t.Fatalf("%s: key order of %+v and %+v differs from the field order", name, a, b)
			}
		}
	}
	random := func(x, y [3]uint32) bool { return agrees(build(x[0], x[1], x[2]), build(y[0], y[1], y[2])) }
	// Values mod 4 make ties on the leading fields common.
	ties := func(x, y [3]uint8) bool {
		return agrees(build(uint32(x[0]%4), uint32(x[1]%4), uint32(x[2]%4)), build(uint32(y[0]%4), uint32(y[1]%4), uint32(y[2]%4)))
	}
	for _, f := range []any{random, ties} {
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestKeyOrderMatchesReference(t *testing.T) {
	checkKeyOrder(t, "EdgeBySource", EdgeBySource,
		func(e Edge) []uint32 { return []uint32{e.U, e.V} },
		func(x, y, _ uint32) Edge { return Edge{U: x, V: y} })
	checkKeyOrder(t, "EdgeByTarget", EdgeByTarget,
		func(e Edge) []uint32 { return []uint32{e.V, e.U} },
		func(x, y, _ uint32) Edge { return Edge{U: x, V: y} })
	checkKeyOrder(t, "NodeByID", NodeByID,
		func(n NodeID) []uint32 { return []uint32{n} },
		func(x, _, _ uint32) NodeID { return x })
	checkKeyOrder(t, "EdgeAugByTarget", EdgeAugByTarget,
		func(e EdgeAug) []uint32 { return []uint32{e.V, e.U} },
		func(x, y, z uint32) EdgeAug {
			return EdgeAug{U: x, V: y, InU: z, OutU: z}
		})
	checkKeyOrder(t, "LabelByNode", LabelByNode,
		func(l Label) []uint32 { return []uint32{l.Node, l.SCC} },
		func(x, y, _ uint32) Label { return Label{Node: x, SCC: y} })
	checkKeyOrder(t, "LabelBySCC", LabelBySCC,
		func(l Label) []uint32 { return []uint32{l.SCC, l.Node} },
		func(x, y, _ uint32) Label { return Label{Node: x, SCC: y} })
	checkKeyOrder(t, "EdgeSCCByTargetSCC", EdgeSCCByTargetSCC,
		func(e EdgeSCC) []uint32 { return []uint32{e.V, e.SCC, e.U} },
		func(x, y, z uint32) EdgeSCC { return EdgeSCC{U: x, V: y, SCC: z} })
}

// TestKeyOfIsCanonicalKeyLo pins KeyOf's doc: the frame-footer seek key of
// edges, node lists and labels is the Lo word of their canonical order's key.
func TestKeyOfIsCanonicalKeyLo(t *testing.T) {
	f := func(u, v uint32) bool {
		e, l := Edge{U: u, V: v}, Label{Node: u, SCC: v}
		return KeyOf(e) == EdgeBySource(e).Lo && KeyOf(u) == NodeByID(u).Lo && KeyOf(l) == LabelByNode(l).Lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEqualKeysImplyEqualRecords pins what lets the external sort use an
// unstable radix sort and still write byte-identical files: for Edge,
// NodeID, Label and EdgeSCC every order's key covers every field.  Fields
// are drawn from three values so that random pairs often share a key.
func TestEqualKeysImplyEqualRecords(t *testing.T) {
	id := func(x uint8) uint32 { return []uint32{0, math.MaxInt32 + 1, math.MaxUint32}[x%3] }
	checks := map[string]any{
		"EdgeBySource": func(a, b [2]uint8) bool {
			x, y := Edge{U: id(a[0]), V: id(a[1])}, Edge{U: id(b[0]), V: id(b[1])}
			return EdgeBySource(x) != EdgeBySource(y) || x == y
		},
		"EdgeByTarget": func(a, b [2]uint8) bool {
			x, y := Edge{U: id(a[0]), V: id(a[1])}, Edge{U: id(b[0]), V: id(b[1])}
			return EdgeByTarget(x) != EdgeByTarget(y) || x == y
		},
		"NodeByID": func(a, b uint8) bool {
			return NodeByID(id(a)) != NodeByID(id(b)) || id(a) == id(b)
		},
		"LabelByNode": func(a, b [2]uint8) bool {
			x, y := Label{Node: id(a[0]), SCC: id(a[1])}, Label{Node: id(b[0]), SCC: id(b[1])}
			return LabelByNode(x) != LabelByNode(y) || x == y
		},
		"LabelBySCC": func(a, b [2]uint8) bool {
			x, y := Label{Node: id(a[0]), SCC: id(a[1])}, Label{Node: id(b[0]), SCC: id(b[1])}
			return LabelBySCC(x) != LabelBySCC(y) || x == y
		},
		"EdgeSCCByTargetSCC": func(a, b [3]uint8) bool {
			x := EdgeSCC{U: id(a[0]), V: id(a[1]), SCC: id(a[2])}
			y := EdgeSCC{U: id(b[0]), V: id(b[1]), SCC: id(b[2])}
			return EdgeSCCByTargetSCC(x) != EdgeSCCByTargetSCC(y) || x == y
		},
	}
	for name, f := range checks {
		if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
