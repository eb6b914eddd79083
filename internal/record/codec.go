package record

import (
	"encoding/binary"
	"fmt"
)

// Codec-family names.  A family selects one encoding for every record type of
// the pipeline; iomodel.Config.Codec carries the chosen family through every
// operator.
const (
	// FamilyFixed is the historical fixed-size layout.  Files are frameless
	// and byte-identical to the pre-codec era, and support record-indexed
	// seeks.
	FamilyFixed = "fixed"
	// FamilyVarint is the delta+varint block layout (see doc.go), the
	// default (iomodel.Config.CodecFamily).
	FamilyVarint = "varint"
)

// Families lists the registered codec family names.
func Families() []string { return []string{FamilyFixed, FamilyVarint} }

// ValidFamily reports whether name is a registered codec family.
func ValidFamily(name string) bool {
	return name == FamilyFixed || name == FamilyVarint
}

// CodecID identifies a block codec on disk: it is the single codec byte of a
// frame header, making framed files self-describing.  IDs are append-only and
// never reused; doc.go lists the retired ones.
type CodecID uint8

const (
	// CodecFixed marks the frameless fixed-size layout; it never appears in a
	// frame header.
	CodecFixed CodecID = 0
	// Varint family, one ID per record type (layouts in doc.go).
	CodecVarintEdge       CodecID = 1
	CodecVarintNode       CodecID = 2
	CodecVarintNodeDegree CodecID = 3
	CodecVarintEdgeAug    CodecID = 4
	CodecVarintLabel      CodecID = 5
	CodecVarintEdgeSCC    CodecID = 6
)

// KnownCodecID reports whether id is registered for use in frame headers.
// CodecFixed is not: it marks the frameless layout and never appears in a
// frame, so a "frame" naming it is garbage; neither are the reserved ids of
// retired families.  Frame parsing rejects unknown ids up front — a
// magic-byte collision in a fixed file, or a file of a retired family, then
// fails fast instead of being decoded as a frame.
func KnownCodecID(id CodecID) bool {
	return id >= CodecVarintEdge && id <= CodecVarintEdgeSCC
}

// FixedSizeOfID returns the fixed-layout size of the record type a registered
// codec id encodes, or 0 for CodecFixed and unknown ids.  Frame parsing uses
// it to bound the decoded size a header can demand before allocating.
func FixedSizeOfID(id CodecID) int {
	switch id {
	case CodecVarintEdge:
		return EdgeCodec{}.Size()
	case CodecVarintNode:
		return NodeCodec{}.Size()
	case CodecVarintNodeDegree:
		return NodeDegreeCodec{}.Size()
	case CodecVarintEdgeAug:
		return EdgeAugCodec{}.Size()
	case CodecVarintLabel:
		return LabelCodec{}.Size()
	case CodecVarintEdgeSCC:
		return EdgeSCCCodec{}.Size()
	}
	return 0
}

// BlockCodec encodes and decodes records of type T one frame at a time.
// Implementations are stateless: all delta state is local to one
// AppendBlock/DecodeBlock call, so frames decode independently.
type BlockCodec[T any] interface {
	// ID is the codec identifier written into every frame header.
	ID() CodecID
	// MaxRecordSize is an upper bound on the encoded size of any single
	// record; writers use it to cap the records per frame.
	MaxRecordSize() int
	// AppendBlock appends the encoding of recs to dst and returns the
	// extended slice.
	AppendBlock(dst []byte, recs []T) []byte
	// DecodeBlock decodes exactly count records from payload, appends them to
	// dst and returns it.  Decoding fewer or more bytes than len(payload) is
	// an error.
	DecodeBlock(payload []byte, count int, dst []T) ([]T, error)
}

// BlockCodecFor returns the BlockCodec of the family for record type T, or
// (nil, false) when the family has no block codec for T (in particular for
// FamilyFixed, whose files are frameless, and for record types private to a
// single package).  Callers fall back to the fixed layout in that case.
func BlockCodecFor[T any](family string) (BlockCodec[T], bool) {
	if family != FamilyVarint {
		return nil, false
	}
	var zero T
	var c any
	switch any(zero).(type) {
	case Edge:
		c = VarintEdgeCodec{}
	case NodeID: // uint32: also covers SCCID
		c = VarintNodeCodec{}
	case NodeDegree:
		c = VarintNodeDegreeCodec{}
	case EdgeAug:
		c = VarintEdgeAugCodec{}
	case Label:
		c = VarintLabelCodec{}
	case EdgeSCC:
		c = VarintEdgeSCCCodec{}
	}
	if c == nil {
		return nil, false
	}
	return c.(BlockCodec[T]), true
}

// BlockCodecForID resolves the codec ID found in a frame header to the
// BlockCodec decoding records of type T.  An ID that belongs to a different
// record type is an error: it means the file is being read as the wrong type.
func BlockCodecForID[T any](id CodecID) (BlockCodec[T], error) {
	if c, ok := BlockCodecFor[T](FamilyVarint); ok && c.ID() == id {
		return c, nil
	}
	var zero T
	return nil, fmt.Errorf("record: frame codec id %d does not decode records of type %T", id, zero)
}

// ---------------------------------------------------------------------------
// Varint primitives
// ---------------------------------------------------------------------------

// zigzag maps a signed delta onto an unsigned integer with small absolute
// values staying small (the protobuf sint encoding).
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendUvarint appends binary.AppendUvarint's bytes for x, writing the one-
// and two-byte forms, nearly every field of a sorted frame, inline.
func appendUvarint(dst []byte, x uint64) []byte {
	if x < 0x80 {
		return append(dst, byte(x))
	}
	if x < 0x4000 {
		return append(dst, byte(x)|0x80, byte(x>>7))
	}
	return binary.AppendUvarint(dst, x)
}

// appendDelta32 appends zz(cur-prev) for a uint32 field.
func appendDelta32(dst []byte, cur, prev uint32) []byte {
	return appendUvarint(dst, zigzag(int64(cur)-int64(prev)))
}

// errShortPayload reports a truncated or overlong varint field.
var errShortPayload = fmt.Errorf("record: truncated varint payload")

// uvarint decodes the uvarint at p[off:], accepting exactly what
// binary.Uvarint accepts, and returns it with the offset past it.  A truncated
// or overlong varint returns an offset past len(p), as does every later call
// given one, so a decoder tests off > len(p) once per record.  Keep it
// inlinable: that is where its speed comes from.
func uvarint(p []byte, off int) (uint64, int) {
	var x uint64
	for s := uint(0); off < len(p); s += 7 {
		b := p[off]
		off++
		if s == 63 && b > 1 {
			break
		}
		if b < 0x80 {
			return x | uint64(b)<<s, off
		}
		x |= uint64(b&0x7f) << s
	}
	return 0, len(p) + 1
}

// undelta32 reapplies prev to a decoded zz(cur-prev) of a uint32 field; the
// sum wraps modulo 2^32.
func undelta32(prev uint32, u uint64) uint32 { return uint32(int64(prev) + unzigzag(u)) }

// checkConsumed verifies the decoder used the payload exactly.
func checkConsumed(off, size int, id CodecID) error {
	if off != size {
		return fmt.Errorf("record: codec %d: frame payload has %d bytes, decoder consumed %d", id, size, off)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Varint codecs, one per record type
// ---------------------------------------------------------------------------

// VarintEdgeCodec is the delta+varint block codec for Edge.
type VarintEdgeCodec struct{}

// ID returns CodecVarintEdge.
func (VarintEdgeCodec) ID() CodecID { return CodecVarintEdge }

// MaxRecordSize returns 10 (two 5-byte zigzag deltas).
func (VarintEdgeCodec) MaxRecordSize() int { return 10 }

// AppendBlock implements BlockCodec.
func (VarintEdgeCodec) AppendBlock(dst []byte, recs []Edge) []byte {
	var pu, pv NodeID
	for _, e := range recs {
		dst = appendDelta32(dst, e.U, pu)
		dst = appendDelta32(dst, e.V, pv)
		pu, pv = e.U, e.V
	}
	return dst
}

// DecodeBlock implements BlockCodec.
func (c VarintEdgeCodec) DecodeBlock(payload []byte, count int, dst []Edge) ([]Edge, error) {
	var pu, pv NodeID
	var u, v uint64
	off := 0
	for i := 0; i < count; i++ {
		u, off = uvarint(payload, off)
		v, off = uvarint(payload, off)
		if off > len(payload) {
			return dst, errShortPayload
		}
		pu, pv = undelta32(pu, u), undelta32(pv, v)
		dst = append(dst, Edge{U: pu, V: pv})
	}
	return dst, checkConsumed(off, len(payload), c.ID())
}

// VarintNodeCodec is the delta+varint block codec for bare node ids.
type VarintNodeCodec struct{}

// ID returns CodecVarintNode.
func (VarintNodeCodec) ID() CodecID { return CodecVarintNode }

// MaxRecordSize returns 5.
func (VarintNodeCodec) MaxRecordSize() int { return 5 }

// AppendBlock implements BlockCodec.
func (VarintNodeCodec) AppendBlock(dst []byte, recs []NodeID) []byte {
	var prev NodeID
	for _, n := range recs {
		dst = appendDelta32(dst, n, prev)
		prev = n
	}
	return dst
}

// DecodeBlock implements BlockCodec.
func (c VarintNodeCodec) DecodeBlock(payload []byte, count int, dst []NodeID) ([]NodeID, error) {
	var prev NodeID
	var u uint64
	off := 0
	for i := 0; i < count; i++ {
		if u, off = uvarint(payload, off); off > len(payload) {
			return dst, errShortPayload
		}
		prev = undelta32(prev, u)
		dst = append(dst, prev)
	}
	return dst, checkConsumed(off, len(payload), c.ID())
}

// VarintNodeDegreeCodec is the delta+varint block codec for NodeDegree.
type VarintNodeDegreeCodec struct{}

// ID returns CodecVarintNodeDegree.
func (VarintNodeDegreeCodec) ID() CodecID { return CodecVarintNodeDegree }

// MaxRecordSize returns 15.
func (VarintNodeDegreeCodec) MaxRecordSize() int { return 15 }

// AppendBlock implements BlockCodec.
func (VarintNodeDegreeCodec) AppendBlock(dst []byte, recs []NodeDegree) []byte {
	var prev NodeID
	for _, d := range recs {
		dst = appendDelta32(dst, d.Node, prev)
		dst = appendUvarint(dst, uint64(d.DegIn))
		dst = appendUvarint(dst, uint64(d.DegOut))
		prev = d.Node
	}
	return dst
}

// DecodeBlock implements BlockCodec.
func (c VarintNodeDegreeCodec) DecodeBlock(payload []byte, count int, dst []NodeDegree) ([]NodeDegree, error) {
	var prev NodeID
	var u, din, dout uint64
	off := 0
	for i := 0; i < count; i++ {
		u, off = uvarint(payload, off)
		din, off = uvarint(payload, off)
		dout, off = uvarint(payload, off)
		if off > len(payload) {
			return dst, errShortPayload
		}
		prev = undelta32(prev, u)
		dst = append(dst, NodeDegree{Node: prev, DegIn: uint32(din), DegOut: uint32(dout)})
	}
	return dst, checkConsumed(off, len(payload), c.ID())
}

// VarintEdgeAugCodec is the delta+varint block codec for EdgeAug, the record
// whose fixed layout is the most wasteful (40 bytes for what is typically a
// handful of small integers).
type VarintEdgeAugCodec struct{}

// ID returns CodecVarintEdgeAug.
func (VarintEdgeAugCodec) ID() CodecID { return CodecVarintEdgeAug }

// MaxRecordSize returns 50 (two 5-byte deltas + four 10-byte uvarints).
func (VarintEdgeAugCodec) MaxRecordSize() int { return 50 }

// AppendBlock implements BlockCodec.
func (VarintEdgeAugCodec) AppendBlock(dst []byte, recs []EdgeAug) []byte {
	var pu, pv NodeID
	for _, e := range recs {
		dst = appendDelta32(dst, e.U, pu)
		dst = appendDelta32(dst, e.V, pv)
		dst = appendUvarint(dst, e.KeyU.Deg)
		dst = appendUvarint(dst, e.KeyU.Prod)
		dst = appendUvarint(dst, e.KeyV.Deg)
		dst = appendUvarint(dst, e.KeyV.Prod)
		pu, pv = e.U, e.V
	}
	return dst
}

// DecodeBlock implements BlockCodec.
func (c VarintEdgeAugCodec) DecodeBlock(payload []byte, count int, dst []EdgeAug) ([]EdgeAug, error) {
	var pu, pv NodeID
	var u, v uint64
	off := 0
	for i := 0; i < count; i++ {
		var rec EdgeAug
		u, off = uvarint(payload, off)
		v, off = uvarint(payload, off)
		rec.KeyU.Deg, off = uvarint(payload, off)
		rec.KeyU.Prod, off = uvarint(payload, off)
		rec.KeyV.Deg, off = uvarint(payload, off)
		rec.KeyV.Prod, off = uvarint(payload, off)
		if off > len(payload) {
			return dst, errShortPayload
		}
		pu, pv = undelta32(pu, u), undelta32(pv, v)
		rec.U, rec.V = pu, pv
		dst = append(dst, rec)
	}
	return dst, checkConsumed(off, len(payload), c.ID())
}

// VarintLabelCodec is the delta+varint block codec for Label.
type VarintLabelCodec struct{}

// ID returns CodecVarintLabel.
func (VarintLabelCodec) ID() CodecID { return CodecVarintLabel }

// MaxRecordSize returns 10.
func (VarintLabelCodec) MaxRecordSize() int { return 10 }

// AppendBlock implements BlockCodec.
func (VarintLabelCodec) AppendBlock(dst []byte, recs []Label) []byte {
	var pn NodeID
	var ps SCCID
	for _, l := range recs {
		dst = appendDelta32(dst, l.Node, pn)
		dst = appendDelta32(dst, l.SCC, ps)
		pn, ps = l.Node, l.SCC
	}
	return dst
}

// DecodeBlock implements BlockCodec.
func (c VarintLabelCodec) DecodeBlock(payload []byte, count int, dst []Label) ([]Label, error) {
	var pn NodeID
	var ps SCCID
	var n, sc uint64
	off := 0
	for i := 0; i < count; i++ {
		n, off = uvarint(payload, off)
		sc, off = uvarint(payload, off)
		if off > len(payload) {
			return dst, errShortPayload
		}
		pn, ps = undelta32(pn, n), undelta32(ps, sc)
		dst = append(dst, Label{Node: pn, SCC: ps})
	}
	return dst, checkConsumed(off, len(payload), c.ID())
}

// VarintEdgeSCCCodec is the delta+varint block codec for EdgeSCC.
type VarintEdgeSCCCodec struct{}

// ID returns CodecVarintEdgeSCC.
func (VarintEdgeSCCCodec) ID() CodecID { return CodecVarintEdgeSCC }

// MaxRecordSize returns 15.
func (VarintEdgeSCCCodec) MaxRecordSize() int { return 15 }

// AppendBlock implements BlockCodec.
func (VarintEdgeSCCCodec) AppendBlock(dst []byte, recs []EdgeSCC) []byte {
	var pu, pv NodeID
	var ps SCCID
	for _, e := range recs {
		dst = appendDelta32(dst, e.U, pu)
		dst = appendDelta32(dst, e.V, pv)
		dst = appendDelta32(dst, e.SCC, ps)
		pu, pv, ps = e.U, e.V, e.SCC
	}
	return dst
}

// DecodeBlock implements BlockCodec.
func (c VarintEdgeSCCCodec) DecodeBlock(payload []byte, count int, dst []EdgeSCC) ([]EdgeSCC, error) {
	var pu, pv NodeID
	var ps SCCID
	var u, v, sc uint64
	off := 0
	for i := 0; i < count; i++ {
		u, off = uvarint(payload, off)
		v, off = uvarint(payload, off)
		sc, off = uvarint(payload, off)
		if off > len(payload) {
			return dst, errShortPayload
		}
		pu, pv, ps = undelta32(pu, u), undelta32(pv, v), undelta32(ps, sc)
		dst = append(dst, EdgeSCC{U: pu, V: pv, SCC: ps})
	}
	return dst, checkConsumed(off, len(payload), c.ID())
}
