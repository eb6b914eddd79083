package record

import (
	"math"
	"testing"
)

// roundTripBlock encodes recs with the codec and decodes them back,
// asserting exact equality.
func roundTripBlock[T comparable](t *testing.T, bc BlockCodec[T], recs []T) {
	t.Helper()
	payload := bc.AppendBlock(nil, recs)
	if len(recs) > 0 && len(payload) > len(recs)*bc.MaxRecordSize() {
		t.Fatalf("payload of %d records is %d bytes, exceeds MaxRecordSize bound %d", len(recs), len(payload), len(recs)*bc.MaxRecordSize())
	}
	got, err := bc.DecodeBlock(payload, len(recs), nil)
	if err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestVarintEdgeRoundTrip(t *testing.T) {
	roundTripBlock[Edge](t, VarintEdgeCodec{}, nil)
	roundTripBlock[Edge](t, VarintEdgeCodec{}, []Edge{{U: 0, V: 0}})
	// Sorted by source (the common case) and deliberately unsorted (deltas go
	// negative), including both uint32 boundaries.
	roundTripBlock[Edge](t, VarintEdgeCodec{}, []Edge{
		{U: 1, V: 9}, {U: 1, V: 10}, {U: 2, V: 3}, {U: 7, V: 1},
	})
	roundTripBlock[Edge](t, VarintEdgeCodec{}, []Edge{
		{U: math.MaxUint32, V: 0}, {U: 0, V: math.MaxUint32}, {U: 5, V: 5},
	})
}

func TestVarintNodeRoundTrip(t *testing.T) {
	roundTripBlock[NodeID](t, VarintNodeCodec{}, nil)
	roundTripBlock[NodeID](t, VarintNodeCodec{}, []NodeID{0, 1, 2, 100, 1 << 30, math.MaxUint32})
	roundTripBlock[NodeID](t, VarintNodeCodec{}, []NodeID{math.MaxUint32, 0, math.MaxUint32, 7})
}

func TestVarintNodeDegreeRoundTrip(t *testing.T) {
	roundTripBlock[NodeDegree](t, VarintNodeDegreeCodec{}, []NodeDegree{
		{Node: 3, DegIn: 0, DegOut: math.MaxUint32},
		{Node: 4, DegIn: 1, DegOut: 1},
		{Node: math.MaxUint32, DegIn: math.MaxUint32, DegOut: 0},
	})
}

func TestVarintEdgeAugRoundTrip(t *testing.T) {
	roundTripBlock[EdgeAug](t, VarintEdgeAugCodec{}, []EdgeAug{
		{U: 1, V: 2, InU: 3, OutU: 2},
		{U: 1, V: 5, InU: math.MaxUint32, OutU: math.MaxUint32},
		{U: math.MaxUint32, V: 0, InU: 1, OutU: 0},
	})
}

func TestVarintLabelRoundTrip(t *testing.T) {
	roundTripBlock[Label](t, VarintLabelCodec{}, []Label{
		{Node: 0, SCC: 0}, {Node: 1, SCC: 0}, {Node: 2, SCC: 2}, {Node: math.MaxUint32, SCC: math.MaxUint32},
	})
}

func TestVarintEdgeSCCRoundTrip(t *testing.T) {
	roundTripBlock[EdgeSCC](t, VarintEdgeSCCCodec{}, []EdgeSCC{
		{U: 9, V: 1, SCC: 4}, {U: 10, V: 1, SCC: 4}, {U: 0, V: math.MaxUint32, SCC: 0},
	})
}

// TestSortedRunCompresses pins the reason the varint family exists: a sorted
// run of edges with small gaps must encode far below the fixed 8 bytes per
// record.
func TestSortedRunCompresses(t *testing.T) {
	var edges []Edge
	for u := NodeID(0); u < 1000; u++ {
		edges = append(edges, Edge{U: u, V: u + 1}, Edge{U: u, V: u + 3})
	}
	payload := VarintEdgeCodec{}.AppendBlock(nil, edges)
	fixedSize := len(edges) * EdgeCodec{}.Size()
	if len(payload)*2 > fixedSize {
		t.Fatalf("sorted run encoded to %d bytes, fixed is %d; want at least 2x compression", len(payload), fixedSize)
	}
}

// TestDecodeBlockRejectsCorruption checks that truncated payloads and
// payloads with trailing garbage fail instead of producing records silently.
func TestDecodeBlockRejectsCorruption(t *testing.T) {
	bc := VarintEdgeCodec{}
	recs := []Edge{{U: 100, V: 200}, {U: 101, V: 199}}
	payload := bc.AppendBlock(nil, recs)
	if _, err := bc.DecodeBlock(payload[:len(payload)-1], len(recs), nil); err == nil {
		t.Fatal("truncated payload decoded without error")
	}
	if _, err := bc.DecodeBlock(append(payload, 0), len(recs), nil); err == nil {
		t.Fatal("payload with trailing garbage decoded without error")
	}
	if _, err := bc.DecodeBlock(payload, len(recs)+1, nil); err == nil {
		t.Fatal("over-count decoded without error")
	}
}

// TestBlockCodecRegistry checks the family and ID lookups that the framed
// reader/writer dispatch through.
func TestBlockCodecRegistry(t *testing.T) {
	if !ValidFamily(FamilyFixed) || !ValidFamily(FamilyVarint) || ValidFamily("zstd") {
		t.Fatal("ValidFamily misclassifies")
	}
	if _, ok := BlockCodecFor[Edge](FamilyFixed); ok {
		t.Fatal("fixed family must have no block codec (frameless)")
	}
	ids := map[CodecID]bool{}
	check := func(id CodecID) {
		t.Helper()
		if id == CodecFixed {
			t.Fatal("block codec uses the reserved fixed id 0")
		}
		if ids[id] {
			t.Fatalf("codec id %d registered twice", id)
		}
		ids[id] = true
	}
	if c, ok := BlockCodecFor[Edge](FamilyVarint); !ok {
		t.Fatal("no varint codec for Edge")
	} else {
		check(c.ID())
	}
	if c, ok := BlockCodecFor[NodeID](FamilyVarint); !ok {
		t.Fatal("no varint codec for NodeID")
	} else {
		check(c.ID())
	}
	if c, ok := BlockCodecFor[NodeDegree](FamilyVarint); !ok {
		t.Fatal("no varint codec for NodeDegree")
	} else {
		check(c.ID())
	}
	if c, ok := BlockCodecFor[EdgeAug](FamilyVarint); !ok {
		t.Fatal("no varint codec for EdgeAug")
	} else {
		check(c.ID())
	}
	if c, ok := BlockCodecFor[Label](FamilyVarint); !ok {
		t.Fatal("no varint codec for Label")
	} else {
		check(c.ID())
	}
	if c, ok := BlockCodecFor[EdgeSCC](FamilyVarint); !ok {
		t.Fatal("no varint codec for EdgeSCC")
	} else {
		check(c.ID())
	}

	if _, err := BlockCodecForID[Edge](CodecVarintEdge); err != nil {
		t.Fatalf("BlockCodecForID[Edge]: %v", err)
	}
	if _, err := BlockCodecForID[Edge](CodecVarintLabel); err == nil {
		t.Fatal("BlockCodecForID accepted a label codec id for edges")
	}
	if _, err := BlockCodecForID[Edge](CodecFixed); err == nil {
		t.Fatal("BlockCodecForID accepted the reserved fixed id")
	}
}

// TestZigzag pins the zigzag mapping at its boundaries.
func TestZigzag(t *testing.T) {
	for _, d := range []int64{0, 1, -1, math.MaxUint32, -math.MaxUint32, math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(d)); got != d {
			t.Fatalf("unzigzag(zigzag(%d)) = %d", d, got)
		}
	}
	if zigzag(0) != 0 || zigzag(-1) != 1 || zigzag(1) != 2 {
		t.Fatal("zigzag does not match the protobuf sint mapping")
	}
}
