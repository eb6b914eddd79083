package record

// Key is a record's sort key under one of the orders of this package
// (EdgeBySource, EdgeByTarget, NodeByID, EdgeAugByTarget, LabelByNode,
// LabelBySCC, EdgeSCCByTargetSCC): records sort by Hi, then by Lo.  Every
// order fits in 96 bits, so package extsort sorts runs by radix on the key's
// bytes instead of by comparisons.
type Key struct{ Hi, Lo uint64 }

// Less reports whether k sorts before o.
func (k Key) Less(o Key) bool { return k.Hi < o.Hi || k.Hi == o.Hi && k.Lo < o.Lo }

// KeyOf maps a record onto the uint64 seek key used by frame-footer skip
// indexes and SeekToKey range probes.  For edges, node lists and labels it
// equals the Lo word of their canonical order's key (EdgeBySource, NodeByID,
// LabelByNode), so sorting by KeyOf equals sorting by that order.  Degree
// rows key on their node, and EdgeAug and EdgeSCC records on (U, V), packed
// as U<<32 | V.  Record types without a registered key map to 0; they are
// only ever written frameless, where no footer is built.
func KeyOf[T any](rec T) uint64 {
	switch r := any(rec).(type) {
	case Edge:
		return uint64(r.U)<<32 | uint64(r.V)
	case NodeID: // uint32: also covers SCCID
		return uint64(r)
	case NodeDegree:
		return uint64(r.Node)
	case EdgeAug:
		return uint64(r.U)<<32 | uint64(r.V)
	case Label:
		return uint64(r.Node)<<32 | uint64(r.SCC)
	case EdgeSCC:
		return uint64(r.U)<<32 | uint64(r.V)
	default:
		return 0
	}
}
