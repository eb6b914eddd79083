package record

import (
	"encoding/binary"
	"fmt"
)

// NodeID identifies a node of the graph.  The paper stores 4 bytes per node;
// uint32 supports graphs with up to ~4.29 billion nodes.
type NodeID = uint32

// SCCID identifies a strongly connected component.  SCC identifiers produced
// by this repository are opaque labels; two nodes belong to the same SCC if
// and only if they carry the same SCCID.
type SCCID = uint32

// Codec encodes and decodes a fixed-size record type T.
type Codec[T any] interface {
	// Size returns the encoded size in bytes; it is constant for the codec.
	Size() int
	// Encode writes the record into dst, which has at least Size() bytes.
	Encode(rec T, dst []byte)
	// Decode reads a record from src, which has at least Size() bytes.
	Decode(src []byte) T
}

// ---------------------------------------------------------------------------
// Edge
// ---------------------------------------------------------------------------

// Edge is a directed edge (U -> V).
type Edge struct {
	U NodeID
	V NodeID
}

// String renders the edge as "u->v".
func (e Edge) String() string { return fmt.Sprintf("%d->%d", e.U, e.V) }

// Reverse returns the edge with its direction flipped.
func (e Edge) Reverse() Edge { return Edge{U: e.V, V: e.U} }

// EdgeCodec is the 8-byte codec for Edge.
type EdgeCodec struct{}

// Size returns 8.
func (EdgeCodec) Size() int { return 8 }

// Encode writes the edge into dst.
func (EdgeCodec) Encode(e Edge, dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], e.U)
	binary.LittleEndian.PutUint32(dst[4:8], e.V)
}

// Decode reads an edge from src.
func (EdgeCodec) Decode(src []byte) Edge {
	return Edge{
		U: binary.LittleEndian.Uint32(src[0:4]),
		V: binary.LittleEndian.Uint32(src[4:8]),
	}
}

// EdgeBySource orders edges by (U, V): the E_out order of the paper, grouping
// the out-going edges of every node.  The key covers both fields, so it
// determines the edge.
func EdgeBySource(e Edge) Key { return Key{Lo: uint64(e.U)<<32 | uint64(e.V)} }

// EdgeByTarget orders edges by (V, U): the E_in order of the paper, grouping
// the incoming edges of every node.  The key covers both fields, so it
// determines the edge.
func EdgeByTarget(e Edge) Key { return Key{Lo: uint64(e.V)<<32 | uint64(e.U)} }

// ---------------------------------------------------------------------------
// Node list
// ---------------------------------------------------------------------------

// NodeCodec is the 4-byte codec for bare node identifiers.
type NodeCodec struct{}

// Size returns 4.
func (NodeCodec) Size() int { return 4 }

// Encode writes the node id into dst.
func (NodeCodec) Encode(n NodeID, dst []byte) { binary.LittleEndian.PutUint32(dst[0:4], n) }

// Decode reads a node id from src.
func (NodeCodec) Decode(src []byte) NodeID { return binary.LittleEndian.Uint32(src[0:4]) }

// NodeByID orders node identifiers ascending.  The key is the id itself.
func NodeByID(n NodeID) Key { return Key{Lo: uint64(n)} }

// ---------------------------------------------------------------------------
// Degree table (V_d of Algorithm 3)
// ---------------------------------------------------------------------------

// NodeDegree is one row of the degree table V_d: a node with its in-degree
// and out-degree in the current graph G_i.
type NodeDegree struct {
	Node   NodeID
	DegIn  uint32
	DegOut uint32
}

// Deg returns the total degree deg(v, G_i) = degin + degout.
func (d NodeDegree) Deg() uint64 { return uint64(d.DegIn) + uint64(d.DegOut) }

// Prod returns degin(v) * degout(v), the number of new edges the removal of v
// would generate (the tie-break of the refined > operator, Definition 7.1).
func (d NodeDegree) Prod() uint64 { return uint64(d.DegIn) * uint64(d.DegOut) }

// Key returns the comparison key of the node under the given operator
// variant.
func (d NodeDegree) Key(refined bool) NodeKey {
	k := NodeKey{Deg: d.Deg()}
	if refined {
		k.Prod = d.Prod()
	}
	return k
}

// NodeDegreeCodec is the 12-byte codec for NodeDegree.
type NodeDegreeCodec struct{}

// Size returns 12.
func (NodeDegreeCodec) Size() int { return 12 }

// Encode writes the row into dst.
func (NodeDegreeCodec) Encode(d NodeDegree, dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], d.Node)
	binary.LittleEndian.PutUint32(dst[4:8], d.DegIn)
	binary.LittleEndian.PutUint32(dst[8:12], d.DegOut)
}

// Decode reads a row from src.
func (NodeDegreeCodec) Decode(src []byte) NodeDegree {
	return NodeDegree{
		Node:   binary.LittleEndian.Uint32(src[0:4]),
		DegIn:  binary.LittleEndian.Uint32(src[4:8]),
		DegOut: binary.LittleEndian.Uint32(src[8:12]),
	}
}

// ---------------------------------------------------------------------------
// The ">" operator (Definition 5.1 and Definition 7.1)
// ---------------------------------------------------------------------------

// NodeKey carries the per-node quantities compared by the > operator: the
// total degree and, for the refined operator of Definition 7.1, the product
// degin*degout.  For the basic operator of Definition 5.1 Prod is zero for
// every node, which makes condition (2) vacuous and falls back to the id
// tie-break.
type NodeKey struct {
	Deg  uint64
	Prod uint64
}

// Greater reports whether node u (with key ku) > node v (with key kv) under
// the paper's total order: higher degree wins; on equal degree the refined
// operator prefers the larger degin*degout product; remaining ties are broken
// by node id.  The node with the *smaller* key is the one removed from the
// vertex cover, so Greater selects the endpoint that stays in V_{i+1}.
func Greater(u NodeID, ku NodeKey, v NodeID, kv NodeKey) bool {
	if ku.Deg != kv.Deg {
		return ku.Deg > kv.Deg
	}
	if ku.Prod != kv.Prod {
		return ku.Prod > kv.Prod
	}
	return u > v
}

// ---------------------------------------------------------------------------
// Degree-augmented edges (E_d of Algorithm 3)
// ---------------------------------------------------------------------------

// EdgeAug is an edge with the comparison keys of both endpoints attached,
// i.e. one row of E_d in Algorithm 3 after both joins with V_d.
type EdgeAug struct {
	U    NodeID
	V    NodeID
	KeyU NodeKey
	KeyV NodeKey
}

// Edge returns the underlying edge.
func (e EdgeAug) Edge() Edge { return Edge{U: e.U, V: e.V} }

// CoverNode returns the endpoint that the vertex-cover construction keeps
// (the larger endpoint under the > operator).
func (e EdgeAug) CoverNode() NodeID {
	if Greater(e.U, e.KeyU, e.V, e.KeyV) {
		return e.U
	}
	return e.V
}

// OtherNode returns the endpoint that is not returned by CoverNode.
func (e EdgeAug) OtherNode() NodeID {
	if Greater(e.U, e.KeyU, e.V, e.KeyV) {
		return e.V
	}
	return e.U
}

// EdgeAugCodec is the 40-byte codec for EdgeAug.
type EdgeAugCodec struct{}

// Size returns 40.
func (EdgeAugCodec) Size() int { return 40 }

// Encode writes the record into dst.
func (EdgeAugCodec) Encode(e EdgeAug, dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], e.U)
	binary.LittleEndian.PutUint32(dst[4:8], e.V)
	binary.LittleEndian.PutUint64(dst[8:16], e.KeyU.Deg)
	binary.LittleEndian.PutUint64(dst[16:24], e.KeyU.Prod)
	binary.LittleEndian.PutUint64(dst[24:32], e.KeyV.Deg)
	binary.LittleEndian.PutUint64(dst[32:40], e.KeyV.Prod)
}

// Decode reads a record from src.
func (EdgeAugCodec) Decode(src []byte) EdgeAug {
	return EdgeAug{
		U:    binary.LittleEndian.Uint32(src[0:4]),
		V:    binary.LittleEndian.Uint32(src[4:8]),
		KeyU: NodeKey{Deg: binary.LittleEndian.Uint64(src[8:16]), Prod: binary.LittleEndian.Uint64(src[16:24])},
		KeyV: NodeKey{Deg: binary.LittleEndian.Uint64(src[24:32]), Prod: binary.LittleEndian.Uint64(src[32:40])},
	}
}

// EdgeAugByTarget orders augmented edges by (V, U).  The key leaves out the
// endpoint keys, so it determines the record only where (V, U) is unique.
// That holds for E_d, the one EdgeAug file the engine sorts: it is joined
// from the deduplicated E_out.
func EdgeAugByTarget(e EdgeAug) Key { return Key{Lo: uint64(e.V)<<32 | uint64(e.U)} }

// ---------------------------------------------------------------------------
// SCC label file
// ---------------------------------------------------------------------------

// Label assigns a node to a strongly connected component.
type Label struct {
	Node NodeID
	SCC  SCCID
}

// LabelCodec is the 8-byte codec for Label.
type LabelCodec struct{}

// Size returns 8.
func (LabelCodec) Size() int { return 8 }

// Encode writes the label into dst.
func (LabelCodec) Encode(l Label, dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], l.Node)
	binary.LittleEndian.PutUint32(dst[4:8], l.SCC)
}

// Decode reads a label from src.
func (LabelCodec) Decode(src []byte) Label {
	return Label{
		Node: binary.LittleEndian.Uint32(src[0:4]),
		SCC:  binary.LittleEndian.Uint32(src[4:8]),
	}
}

// LabelByNode orders labels by (node, SCC).  A labelling has one label per
// node, so this is its node order; where a file holds several labels per
// node (hop-label files, EM-SCC's relabel file) they follow in SCC order.
// The key covers both fields, so it determines the label.
func LabelByNode(l Label) Key { return Key{Lo: uint64(l.Node)<<32 | uint64(l.SCC)} }

// LabelBySCC orders labels by (SCC, node).  The key covers both fields, so it
// determines the label.
func LabelBySCC(l Label) Key { return Key{Lo: uint64(l.SCC)<<32 | uint64(l.Node)} }

// ---------------------------------------------------------------------------
// SCC-annotated edges (E'_in / E'_out of Algorithm 5)
// ---------------------------------------------------------------------------

// EdgeSCC is an edge (U -> V) annotated with the SCC identifier of its U
// endpoint, i.e. one row of the augment(E) output in Algorithm 5: V is a
// removed node and U is a kept neighbour whose SCC is already known.
type EdgeSCC struct {
	U   NodeID
	V   NodeID
	SCC SCCID
}

// EdgeSCCCodec is the 12-byte codec for EdgeSCC.
type EdgeSCCCodec struct{}

// Size returns 12.
func (EdgeSCCCodec) Size() int { return 12 }

// Encode writes the record into dst.
func (EdgeSCCCodec) Encode(e EdgeSCC, dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], e.U)
	binary.LittleEndian.PutUint32(dst[4:8], e.V)
	binary.LittleEndian.PutUint32(dst[8:12], e.SCC)
}

// Decode reads a record from src.
func (EdgeSCCCodec) Decode(src []byte) EdgeSCC {
	return EdgeSCC{
		U:   binary.LittleEndian.Uint32(src[0:4]),
		V:   binary.LittleEndian.Uint32(src[4:8]),
		SCC: binary.LittleEndian.Uint32(src[8:12]),
	}
}

// EdgeSCCByTargetSCC orders SCC-annotated edges by (V, SCC, U): the order
// line 13 of Algorithm 5 produces, grouping all annotated neighbours of each
// removed node with their SCC identifiers in ascending order so that the
// in/out SCC-set intersection is a linear merge.  The key covers all three
// fields, so it determines the record.
func EdgeSCCByTargetSCC(e EdgeSCC) Key {
	return Key{Hi: uint64(e.V), Lo: uint64(e.SCC)<<32 | uint64(e.U)}
}
