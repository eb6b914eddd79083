package record

import (
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEdgeCodecRoundTrip(t *testing.T) {
	codec := EdgeCodec{}
	if codec.Size() != 8 {
		t.Fatalf("Size = %d, want 8", codec.Size())
	}
	f := func(u, v uint32) bool {
		buf := make([]byte, codec.Size())
		codec.Encode(Edge{U: u, V: v}, buf)
		got := codec.Decode(buf)
		return got.U == u && got.V == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeStringAndReverse(t *testing.T) {
	e := Edge{U: 3, V: 7}
	if e.String() != "3->7" {
		t.Fatalf("String = %q", e.String())
	}
	if r := e.Reverse(); r.U != 7 || r.V != 3 {
		t.Fatalf("Reverse = %+v", r)
	}
	if rr := e.Reverse().Reverse(); rr != e {
		t.Fatalf("double reverse changed edge: %+v", rr)
	}
}

func TestEdgeOrders(t *testing.T) {
	edges := []Edge{{3, 1}, {1, 2}, {1, 1}, {2, 1}, {3, 0}}
	bySource := append([]Edge(nil), edges...)
	sort.Slice(bySource, func(i, j int) bool { return less(EdgeBySource, bySource[i], bySource[j]) })
	want := []Edge{{1, 1}, {1, 2}, {2, 1}, {3, 0}, {3, 1}}
	for i := range want {
		if bySource[i] != want[i] {
			t.Fatalf("bySource[%d] = %+v, want %+v", i, bySource[i], want[i])
		}
	}
	byTarget := append([]Edge(nil), edges...)
	sort.Slice(byTarget, func(i, j int) bool { return less(EdgeByTarget, byTarget[i], byTarget[j]) })
	wantT := []Edge{{3, 0}, {1, 1}, {2, 1}, {3, 1}, {1, 2}}
	for i := range wantT {
		if byTarget[i] != wantT[i] {
			t.Fatalf("byTarget[%d] = %+v, want %+v", i, byTarget[i], wantT[i])
		}
	}
}

func TestNodeCodecRoundTrip(t *testing.T) {
	codec := NodeCodec{}
	if codec.Size() != 4 {
		t.Fatalf("Size = %d", codec.Size())
	}
	f := func(n uint32) bool {
		buf := make([]byte, 4)
		codec.Encode(n, buf)
		return codec.Decode(buf) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if !less(NodeByID, 1, 2) || less(NodeByID, 2, 1) || less(NodeByID, 2, 2) {
		t.Fatal("NodeByID broken")
	}
}

func TestNodeDegreeCodecRoundTrip(t *testing.T) {
	codec := NodeDegreeCodec{}
	if codec.Size() != 12 {
		t.Fatalf("Size = %d", codec.Size())
	}
	f := func(n, in, out uint32) bool {
		buf := make([]byte, codec.Size())
		codec.Encode(NodeDegree{Node: n, DegIn: in, DegOut: out}, buf)
		d := codec.Decode(buf)
		return d.Node == n && d.DegIn == in && d.DegOut == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodeDegreeDerived(t *testing.T) {
	d := NodeDegree{Node: 5, DegIn: 3, DegOut: 4}
	if d.Deg() != 7 {
		t.Fatalf("Deg = %d", d.Deg())
	}
	if d.Prod() != 12 {
		t.Fatalf("Prod = %d", d.Prod())
	}
	basic := d.Key(false)
	if basic.Deg != 7 || basic.Prod != 0 {
		t.Fatalf("basic key = %+v", basic)
	}
	refined := d.Key(true)
	if refined.Deg != 7 || refined.Prod != 12 {
		t.Fatalf("refined key = %+v", refined)
	}
	// Overflow safety: large degrees must not wrap in the product.
	big := NodeDegree{DegIn: 1 << 31, DegOut: 1 << 31}
	if big.Prod() != uint64(1)<<62 {
		t.Fatalf("Prod overflowed: %d", big.Prod())
	}
}

func TestGreaterBasicOperator(t *testing.T) {
	// Definition 5.1: degree first, node id breaks ties.
	if !Greater(1, NodeKey{Deg: 5}, 2, NodeKey{Deg: 3}) {
		t.Fatal("higher degree should win")
	}
	if Greater(1, NodeKey{Deg: 3}, 2, NodeKey{Deg: 5}) {
		t.Fatal("lower degree should lose")
	}
	if !Greater(7, NodeKey{Deg: 3}, 2, NodeKey{Deg: 3}) {
		t.Fatal("equal degree: larger id should win")
	}
	if Greater(2, NodeKey{Deg: 3}, 7, NodeKey{Deg: 3}) {
		t.Fatal("equal degree: smaller id should lose")
	}
}

func TestGreaterRefinedOperator(t *testing.T) {
	// Definition 7.1: equal degree, larger degin*degout product wins.
	if !Greater(1, NodeKey{Deg: 4, Prod: 4}, 9, NodeKey{Deg: 4, Prod: 3}) {
		t.Fatal("larger product should win")
	}
	if Greater(9, NodeKey{Deg: 4, Prod: 3}, 1, NodeKey{Deg: 4, Prod: 4}) {
		t.Fatal("smaller product should lose")
	}
	if !Greater(9, NodeKey{Deg: 4, Prod: 4}, 1, NodeKey{Deg: 4, Prod: 4}) {
		t.Fatal("equal product: larger id should win")
	}
}

func TestGreaterIsStrictTotalOrder(t *testing.T) {
	// For distinct nodes, exactly one of u>v and v>u holds (totality and
	// antisymmetry), and a node is never greater than itself.
	f := func(u, v uint32, du, dv uint16, pu, pv uint16) bool {
		ku := NodeKey{Deg: uint64(du), Prod: uint64(pu)}
		kv := NodeKey{Deg: uint64(dv), Prod: uint64(pv)}
		if u == v && ku == kv {
			return !Greater(u, ku, v, kv)
		}
		a := Greater(u, ku, v, kv)
		b := Greater(v, kv, u, ku)
		return a != b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGreaterTransitivityProperty(t *testing.T) {
	type nk struct {
		id uint32
		k  NodeKey
	}
	f := func(a, b, c uint32, da, db, dc uint8) bool {
		x := nk{a, NodeKey{Deg: uint64(da)}}
		y := nk{b, NodeKey{Deg: uint64(db)}}
		z := nk{c, NodeKey{Deg: uint64(dc)}}
		if Greater(x.id, x.k, y.id, y.k) && Greater(y.id, y.k, z.id, z.k) {
			return Greater(x.id, x.k, z.id, z.k)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeAugCodecRoundTrip(t *testing.T) {
	codec := EdgeAugCodec{}
	if codec.Size() != 16 {
		t.Fatalf("Size = %d", codec.Size())
	}
	f := func(u, v, in, out uint32) bool {
		rec := EdgeAug{U: u, V: v, InU: in, OutU: out}
		buf := make([]byte, codec.Size())
		codec.Encode(rec, buf)
		return codec.Decode(buf) == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeAugCoverNode pins CoverEnd on an edge's two orientations and
// EdgeAug's projections: the source's key comes from its carried degrees.
func TestEdgeAugCoverNode(t *testing.T) {
	e := EdgeAug{U: 1, V: 2, InU: 2, OutU: 3}
	ku := e.Source().Key(true)
	if ku != (NodeKey{Deg: 5, Prod: 6}) || e.Source().Node != 1 {
		t.Fatalf("Source = %+v, key %+v", e.Source(), ku)
	}
	if c, k, o := CoverEnd(e.U, ku, e.V, NodeKey{Deg: 3}); c != 1 || k != ku || o != 2 {
		t.Fatalf("cover = %d (key %+v), other = %d", c, k, o)
	}
	kv := NodeKey{Deg: 5, Prod: 7}
	if c, k, o := CoverEnd(e.U, ku, e.V, kv); c != 2 || k != kv || o != 1 {
		t.Fatalf("cover = %d (key %+v), other = %d", c, k, o)
	}
	if e.Edge() != (Edge{U: 1, V: 2}) {
		t.Fatalf("Edge = %+v", e.Edge())
	}
}

// TestEdgeAugIs16Bytes pins E_d's sort record at 16 bytes in memory and in
// the fixed layout, which sizes its runs at M/2/16 records.
func TestEdgeAugIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(EdgeAug{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(EdgeAug{}) = %d, want 16", got)
	}
	if got := (EdgeAugCodec{}).Size(); got != 16 {
		t.Fatalf("EdgeAugCodec.Size() = %d, want 16", got)
	}
}

func TestEdgeAugOrders(t *testing.T) {
	a := EdgeAug{U: 1, V: 5}
	b := EdgeAug{U: 1, V: 6}
	c := EdgeAug{U: 2, V: 1}
	if !less(EdgeAugByTarget, c, a) || !less(EdgeAugByTarget, a, b) || less(EdgeAugByTarget, b, c) {
		t.Fatal("EdgeAugByTarget broken")
	}
}

func TestLabelCodecRoundTrip(t *testing.T) {
	codec := LabelCodec{}
	if codec.Size() != 8 {
		t.Fatalf("Size = %d", codec.Size())
	}
	f := func(n, s uint32) bool {
		buf := make([]byte, codec.Size())
		codec.Encode(Label{Node: n, SCC: s}, buf)
		return codec.Decode(buf) == Label{Node: n, SCC: s}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLabelOrders(t *testing.T) {
	if !less(LabelByNode, Label{Node: 1, SCC: 9}, Label{Node: 2, SCC: 0}) {
		t.Fatal("LabelByNode broken")
	}
	if !less(LabelBySCC, Label{Node: 9, SCC: 1}, Label{Node: 0, SCC: 2}) {
		t.Fatal("LabelBySCC should order by SCC first")
	}
	if !less(LabelBySCC, Label{Node: 1, SCC: 2}, Label{Node: 3, SCC: 2}) {
		t.Fatal("LabelBySCC should break ties by node")
	}
}

func TestEdgeSCCCodecRoundTrip(t *testing.T) {
	codec := EdgeSCCCodec{}
	if codec.Size() != 12 {
		t.Fatalf("Size = %d", codec.Size())
	}
	f := func(u, v, s uint32) bool {
		buf := make([]byte, codec.Size())
		codec.Encode(EdgeSCC{U: u, V: v, SCC: s}, buf)
		return codec.Decode(buf) == EdgeSCC{U: u, V: v, SCC: s}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeSCCOrders(t *testing.T) {
	// Order of line 13: (target, SCC, source).
	if !less(EdgeSCCByTargetSCC, EdgeSCC{U: 9, V: 1, SCC: 5}, EdgeSCC{U: 0, V: 2, SCC: 0}) {
		t.Fatal("target should dominate")
	}
	if !less(EdgeSCCByTargetSCC, EdgeSCC{U: 9, V: 2, SCC: 1}, EdgeSCC{U: 0, V: 2, SCC: 5}) {
		t.Fatal("SCC should be the second key")
	}
	if !less(EdgeSCCByTargetSCC, EdgeSCC{U: 1, V: 2, SCC: 5}, EdgeSCC{U: 3, V: 2, SCC: 5}) {
		t.Fatal("source should be the last key")
	}
}
