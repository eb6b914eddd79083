package record

// Fuzz round-trips for every codec — fixed and varint: Encode followed by
// Decode must reproduce the record exactly, for arbitrary field values.  The
// varint fuzzers additionally build three-record blocks (so the delta chains
// are exercised, not just the first record).  Every varint block must also
// match a reference encoder built on encoding/binary byte for byte.  The
// garbage fuzzer feeds arbitrary bytes to every block decoder, which must
// reject them with an error instead of panicking or fabricating records, and
// must agree with a reference decoder built on encoding/binary.  The seed
// corpus under testdata/fuzz pins the boundary NodeIDs (0 and MaxUint32) and
// the varint field-length edges; the seeds run as ordinary cases on every
// `go test`, and `go test -fuzz` explores beyond them.

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func FuzzEdgeCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0))
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32))
	f.Add(uint32(0), uint32(math.MaxUint32))
	f.Add(uint32(1), uint32(2))
	f.Fuzz(func(t *testing.T, u, v uint32) {
		c := EdgeCodec{}
		buf := make([]byte, c.Size())
		want := Edge{U: u, V: v}
		c.Encode(want, buf)
		if got := c.Decode(buf); got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	})
}

func FuzzNodeCodec(f *testing.F) {
	f.Add(uint32(0))
	f.Add(uint32(math.MaxUint32))
	f.Add(uint32(math.MaxUint32 - 1))
	f.Fuzz(func(t *testing.T, n uint32) {
		c := NodeCodec{}
		buf := make([]byte, c.Size())
		c.Encode(n, buf)
		if got := c.Decode(buf); got != n {
			t.Fatalf("round trip: got %d, want %d", got, n)
		}
	})
}

func FuzzLabelCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0))
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32))
	f.Add(uint32(math.MaxUint32), uint32(0))
	f.Fuzz(func(t *testing.T, node, scc uint32) {
		c := LabelCodec{}
		buf := make([]byte, c.Size())
		want := Label{Node: node, SCC: scc}
		c.Encode(want, buf)
		if got := c.Decode(buf); got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	})
}

func FuzzNodeDegreeCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0))
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(math.MaxUint32))
	f.Add(uint32(0), uint32(math.MaxUint32), uint32(1))
	f.Fuzz(func(t *testing.T, node, degIn, degOut uint32) {
		c := NodeDegreeCodec{}
		buf := make([]byte, c.Size())
		want := NodeDegree{Node: node, DegIn: degIn, DegOut: degOut}
		c.Encode(want, buf)
		if got := c.Decode(buf); got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		// The derived keys must survive the trip too: Deg and Prod never
		// overflow because they widen to uint64 before combining.
		got := c.Decode(buf)
		if got.Deg() != uint64(degIn)+uint64(degOut) {
			t.Fatalf("Deg() = %d after round trip", got.Deg())
		}
		if got.Prod() != uint64(degIn)*uint64(degOut) {
			t.Fatalf("Prod() = %d after round trip", got.Prod())
		}
	})
}

func FuzzEdgeSCCCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0))
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(math.MaxUint32))
	f.Add(uint32(math.MaxUint32), uint32(0), uint32(7))
	f.Fuzz(func(t *testing.T, u, v, scc uint32) {
		c := EdgeSCCCodec{}
		buf := make([]byte, c.Size())
		want := EdgeSCC{U: u, V: v, SCC: scc}
		c.Encode(want, buf)
		if got := c.Decode(buf); got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	})
}

func FuzzEdgeAugCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32),
		uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64))
	f.Add(uint32(0), uint32(math.MaxUint32), uint64(1), uint64(2), uint64(3), uint64(4))
	f.Fuzz(func(t *testing.T, u, v uint32, degU, prodU, degV, prodV uint64) {
		c := EdgeAugCodec{}
		buf := make([]byte, c.Size())
		want := EdgeAug{
			U:    u,
			V:    v,
			KeyU: NodeKey{Deg: degU, Prod: prodU},
			KeyV: NodeKey{Deg: degV, Prod: prodV},
		}
		c.Encode(want, buf)
		if got := c.Decode(buf); got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	})
}

// The reference varint codec reads and writes every field with
// encoding/binary, one error-checked call per field.  The fuzzers below hold
// the codec's inlined field kernels to it: the same bytes on encode (so the
// on-disk layout, and with it the accounted I/O, cannot drift) and, on any
// payload, the same verdict and the same records on decode.

// refAppendDelta32 appends zz(cur-prev) for a uint32 field.
func refAppendDelta32(dst []byte, cur, prev uint32) []byte {
	return binary.AppendUvarint(dst, zigzag(int64(cur)-int64(prev)))
}

// refAppendBlock encodes recs in the varint layout of their record type.
func refAppendBlock[T any](recs []T) []byte {
	var dst []byte
	var pa, pb, pc uint32 // previous values of the delta-coded fields
	for _, rec := range recs {
		switch r := any(rec).(type) {
		case Edge:
			dst = refAppendDelta32(refAppendDelta32(dst, r.U, pa), r.V, pb)
			pa, pb = r.U, r.V
		case NodeID:
			dst = refAppendDelta32(dst, r, pa)
			pa = r
		case NodeDegree:
			dst = refAppendDelta32(dst, r.Node, pa)
			dst = binary.AppendUvarint(dst, uint64(r.DegIn))
			dst = binary.AppendUvarint(dst, uint64(r.DegOut))
			pa = r.Node
		case EdgeAug:
			dst = refAppendDelta32(refAppendDelta32(dst, r.U, pa), r.V, pb)
			for _, x := range []uint64{r.KeyU.Deg, r.KeyU.Prod, r.KeyV.Deg, r.KeyV.Prod} {
				dst = binary.AppendUvarint(dst, x)
			}
			pa, pb = r.U, r.V
		case Label:
			dst = refAppendDelta32(refAppendDelta32(dst, r.Node, pa), r.SCC, pb)
			pa, pb = r.Node, r.SCC
		case EdgeSCC:
			dst = refAppendDelta32(refAppendDelta32(refAppendDelta32(dst, r.U, pa), r.V, pb), r.SCC, pc)
			pa, pb, pc = r.U, r.V, r.SCC
		}
	}
	return dst
}

// refReader reads uvarint fields from a payload; bad sticks once a field is
// truncated or overlong.
type refReader struct {
	payload []byte
	off     int
	bad     bool
}

// readUvarint reads one uvarint with binary.Uvarint.
func (r *refReader) readUvarint() uint64 {
	if r.bad {
		return 0
	}
	u, n := binary.Uvarint(r.payload[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return u
}

// readDelta32 reads zz(cur-prev) for a uint32 field and reapplies prev.
func (r *refReader) readDelta32(prev uint32) uint32 {
	return uint32(int64(prev) + unzigzag(r.readUvarint()))
}

// refDecodeBlock decodes count records of type T from a varint payload; ok
// reports whether every field was well formed and the records used the
// payload exactly.
func refDecodeBlock[T any](payload []byte, count int) (recs []T, ok bool) {
	r := &refReader{payload: payload}
	var pa, pb, pc uint32
	for i := 0; i < count; i++ {
		var rec any
		switch any(recs).(type) {
		case []Edge:
			pa, pb = r.readDelta32(pa), r.readDelta32(pb)
			rec = Edge{U: pa, V: pb}
		case []NodeID:
			pa = r.readDelta32(pa)
			rec = pa
		case []NodeDegree:
			pa = r.readDelta32(pa)
			rec = NodeDegree{Node: pa, DegIn: uint32(r.readUvarint()), DegOut: uint32(r.readUvarint())}
		case []EdgeAug:
			pa, pb = r.readDelta32(pa), r.readDelta32(pb)
			rec = EdgeAug{U: pa, V: pb,
				KeyU: NodeKey{Deg: r.readUvarint(), Prod: r.readUvarint()},
				KeyV: NodeKey{Deg: r.readUvarint(), Prod: r.readUvarint()}}
		case []Label:
			pa, pb = r.readDelta32(pa), r.readDelta32(pb)
			rec = Label{Node: pa, SCC: pb}
		case []EdgeSCC:
			pa, pb, pc = r.readDelta32(pa), r.readDelta32(pb), r.readDelta32(pc)
			rec = EdgeSCC{U: pa, V: pb, SCC: pc}
		}
		if r.bad {
			return nil, false
		}
		recs = append(recs, rec.(T))
	}
	return recs, r.off == len(payload)
}

// fuzzBlockRoundTrip encodes recs as one block and decodes it back.  The
// block must also be byte-identical to refAppendBlock's.
func fuzzBlockRoundTrip[T comparable](t *testing.T, bc BlockCodec[T], recs []T) {
	t.Helper()
	payload := bc.AppendBlock(nil, recs)
	if len(payload) > len(recs)*bc.MaxRecordSize() {
		t.Fatalf("payload %d bytes exceeds MaxRecordSize bound %d", len(payload), len(recs)*bc.MaxRecordSize())
	}
	if want := refAppendBlock(recs); !bytes.Equal(payload, want) {
		t.Fatalf("AppendBlock wrote % x, reference encoder % x", payload, want)
	}
	got, err := bc.DecodeBlock(payload, len(recs), nil)
	if err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func FuzzVarintEdgeCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(1), uint32(2))
	f.Add(uint32(7), uint32(7), uint32(3), uint32(9), uint32(0), uint32(math.MaxUint32))
	// Deltas whose zigzag values sit on the 1/2- and 2/3-byte boundaries
	// (0x7f, 0x80, 0x3fff, 0x4000) and inside the 3-byte range.
	f.Add(uint32(0x40), uint32(0x2000), uint32(0x203f), uint32(0x5fff), uint32(0x3f), uint32(0x5fbf))
	f.Fuzz(func(t *testing.T, u1, v1, u2, v2, u3, v3 uint32) {
		fuzzBlockRoundTrip[Edge](t, VarintEdgeCodec{}, []Edge{{U: u1, V: v1}, {U: u2, V: v2}, {U: u3, V: v3}})
	})
}

func FuzzVarintNodeCodec(f *testing.F) {
	f.Add(uint32(0), uint32(math.MaxUint32), uint32(1))
	f.Add(uint32(math.MaxUint32), uint32(0), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, a, b, c uint32) {
		fuzzBlockRoundTrip[NodeID](t, VarintNodeCodec{}, []NodeID{a, b, c})
	})
}

func FuzzVarintNodeDegreeCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, n1, i1, o1, n2, i2, o2 uint32) {
		fuzzBlockRoundTrip[NodeDegree](t, VarintNodeDegreeCodec{}, []NodeDegree{
			{Node: n1, DegIn: i1, DegOut: o1},
			{Node: n2, DegIn: i2, DegOut: o2},
		})
	})
}

func FuzzVarintEdgeAugCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint64(0), uint64(0), uint64(math.MaxUint64), uint64(math.MaxUint64),
		uint32(math.MaxUint32), uint32(math.MaxUint32), uint64(1), uint64(2), uint64(3), uint64(4))
	f.Add(uint32(0x3f), uint32(0x40), uint64(0x7f), uint64(0x80), uint64(0x3fff), uint64(0x4000),
		uint32(0x203f), uint32(0x2040), uint64(0x7fff), uint64(1<<21-1), uint64(1<<21), uint64(1<<63))
	f.Fuzz(func(t *testing.T, u1, v1 uint32, du1, pu1, dv1, pv1 uint64, u2, v2 uint32, du2, pu2, dv2, pv2 uint64) {
		fuzzBlockRoundTrip[EdgeAug](t, VarintEdgeAugCodec{}, []EdgeAug{
			{U: u1, V: v1, KeyU: NodeKey{Deg: du1, Prod: pu1}, KeyV: NodeKey{Deg: dv1, Prod: pv1}},
			{U: u2, V: v2, KeyU: NodeKey{Deg: du2, Prod: pu2}, KeyV: NodeKey{Deg: dv2, Prod: pv2}},
		})
	})
}

func FuzzVarintLabelCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(math.MaxUint32), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, n1, s1, n2, s2 uint32) {
		fuzzBlockRoundTrip[Label](t, VarintLabelCodec{}, []Label{{Node: n1, SCC: s1}, {Node: n2, SCC: s2}})
	})
}

func FuzzVarintEdgeSCCCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, u1, v1, s1, u2, v2, s2 uint32) {
		fuzzBlockRoundTrip[EdgeSCC](t, VarintEdgeSCCCodec{}, []EdgeSCC{{U: u1, V: v1, SCC: s1}, {U: u2, V: v2, SCC: s2}})
	})
}

// FuzzVarintDecodeGarbage feeds arbitrary payload bytes and record counts to
// every varint decoder and compares it with the reference decoder: both must
// accept or both reject, and on success return the same records.  Decoding
// must never panic.  The committed seeds pin the field-length edges — a
// maximal 10-byte field, a 10th-byte overflow, an 11-byte run, a field cut
// short — plus trailing bytes and a count the payload cannot hold.
func FuzzVarintDecodeGarbage(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(4))
	f.Fuzz(func(t *testing.T, payload []byte, count8 uint8) {
		count := int(count8)
		diffDecode[Edge](t, VarintEdgeCodec{}, payload, count)
		diffDecode[NodeID](t, VarintNodeCodec{}, payload, count)
		diffDecode[NodeDegree](t, VarintNodeDegreeCodec{}, payload, count)
		diffDecode[EdgeAug](t, VarintEdgeAugCodec{}, payload, count)
		diffDecode[Label](t, VarintLabelCodec{}, payload, count)
		diffDecode[EdgeSCC](t, VarintEdgeSCCCodec{}, payload, count)
	})
}

// diffDecode decodes payload with bc and with refDecodeBlock and fails on any
// difference in verdict or records.
func diffDecode[T comparable](t *testing.T, bc BlockCodec[T], payload []byte, count int) {
	t.Helper()
	got, err := bc.DecodeBlock(payload, count, nil)
	want, ok := refDecodeBlock[T](payload, count)
	if (err == nil) != ok {
		t.Fatalf("codec %d: DecodeBlock error %v, reference accepts: %v", bc.ID(), err, ok)
	}
	if !ok {
		return
	}
	if len(got) != count {
		t.Fatalf("codec %d: decoded %d records without error, want %d", bc.ID(), len(got), count)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("codec %d: record %d: got %+v, reference %+v", bc.ID(), i, got[i], want[i])
		}
	}
}
